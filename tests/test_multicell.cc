/**
 * @file
 * Multi-cell network simulator tests: the acceptance bar is that
 * the `grid-3x3` and `dense-urban-10k` presets run bit-identically
 * at 1, 2 and 8 worker threads; around it, NetworkSpec round-trips
 * its topology/traffic/scheduler keys, the scheduler actually
 * arbitrates (one grant per cell per slot), the full-PHY rung works
 * at conditioned SINR, and the analytic rung tracks it.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/kernels.hh"
#include "peruser_reference.hh"
#include "sim/campaign.hh"
#include "sim/network_sim.hh"

using namespace wilis;
using namespace wilis::sim;

namespace {

std::string
calibrationPath()
{
    return std::string(WILIS_SOURCE_DIR) +
           "/data/network_calibration.txt";
}

void
expectSameStats(const UserStats &a, const UserStats &b, int user)
{
    EXPECT_EQ(a.framesSent, b.framesSent) << "user " << user;
    EXPECT_EQ(a.framesOk, b.framesOk) << "user " << user;
    EXPECT_EQ(a.stalledSlots, b.stalledSlots) << "user " << user;
    EXPECT_EQ(a.retransmissions, b.retransmissions)
        << "user " << user;
    EXPECT_EQ(a.delivered, b.delivered) << "user " << user;
    EXPECT_EQ(a.dropped, b.dropped) << "user " << user;
    EXPECT_EQ(a.goodputBits, b.goodputBits) << "user " << user;
    EXPECT_EQ(a.arrivals, b.arrivals) << "user " << user;
    EXPECT_EQ(a.queueDrops, b.queueDrops) << "user " << user;
    EXPECT_EQ(a.fullPhyFrames, b.fullPhyFrames) << "user " << user;
    EXPECT_EQ(a.analyticFrames, b.analyticFrames)
        << "user " << user;
    EXPECT_EQ(a.servingCell, b.servingCell) << "user " << user;
    EXPECT_EQ(a.handovers, b.handovers) << "user " << user;
    EXPECT_EQ(a.pingPongs, b.pingPongs) << "user " << user;
    EXPECT_EQ(a.joins, b.joins) << "user " << user;
    EXPECT_EQ(a.leaves, b.leaves) << "user " << user;
    EXPECT_EQ(a.goodputBitsPreHo, b.goodputBitsPreHo)
        << "user " << user;
    EXPECT_EQ(a.goodputBitsPostHo, b.goodputBitsPostHo)
        << "user " << user;
    EXPECT_EQ(a.preHoSlots, b.preHoSlots) << "user " << user;
    EXPECT_EQ(a.postHoSlots, b.postHoSlots) << "user " << user;
    EXPECT_DOUBLE_EQ(a.meanSnrDb, b.meanSnrDb) << "user " << user;
    // Per-user statistics accumulate sequentially inside one cell's
    // work item, so even the floating-point moments are
    // bit-identical.
    EXPECT_EQ(a.latencySlots.count(), b.latencySlots.count())
        << "user " << user;
    EXPECT_EQ(a.latencySlots.mean(), b.latencySlots.mean())
        << "user " << user;
    EXPECT_EQ(a.queueWaitSlots.mean(), b.queueWaitSlots.mean())
        << "user " << user;
    EXPECT_EQ(a.sinrDb.count(), b.sinrDb.count())
        << "user " << user;
    EXPECT_EQ(a.sinrDb.mean(), b.sinrDb.mean()) << "user " << user;
    EXPECT_EQ(a.sinrDb.variance(), b.sinrDb.variance())
        << "user " << user;
    for (int bin = 0; bin < a.latencyHist.numBins(); ++bin)
        EXPECT_EQ(a.latencyHist.count(bin), b.latencyHist.count(bin))
            << "user " << user << " latency bin " << bin;
    for (int bin = 0; bin < a.rateHist.numBins(); ++bin)
        EXPECT_EQ(a.rateHist.count(bin), b.rateHist.count(bin))
            << "user " << user << " rate bin " << bin;
}

void
expectThreadCountInvariant(const NetworkSpec &spec,
                           std::uint64_t slots)
{
    NetworkSim sim(spec);
    NetworkResult t1 = sim.run(slots, 1);
    NetworkResult t2 = sim.run(slots, 2);
    NetworkResult t8 = sim.run(slots, 8);

    ASSERT_EQ(t1.users.size(),
              static_cast<size_t>(spec.numUsers));
    ASSERT_EQ(t2.users.size(), t1.users.size());
    ASSERT_EQ(t8.users.size(), t1.users.size());
    for (int u = 0; u < spec.numUsers; ++u) {
        expectSameStats(t1.users[static_cast<size_t>(u)],
                        t2.users[static_cast<size_t>(u)], u);
        expectSameStats(t1.users[static_cast<size_t>(u)],
                        t8.users[static_cast<size_t>(u)], u);
    }
    expectSameStats(t1.aggregate, t2.aggregate, -1);
    expectSameStats(t1.aggregate, t8.aggregate, -1);
}

} // namespace

// ----------------------------------------------------- spec layer

TEST(MulticellSpec, TopologyTrafficSchedulerKeysRoundTrip)
{
    NetworkSpec s;
    s.numUsers = 24;
    s.topology.rows = 2;
    s.topology.cols = 4;
    s.topology.cellSpacingM = 300.0;
    s.topology.cellRadiusM = 140.0;
    s.topology.minDistanceM = 15.0;
    s.topology.pathloss.refSnrDb = 47.0;
    s.topology.pathloss.refDistanceM = 12.0;
    s.topology.pathloss.exponent = 3.2;
    s.topology.pathloss.shadowSigmaDb = 5.0;
    s.traffic.kind = mac::TrafficKind::OnOff;
    s.traffic.load = 0.7;
    s.traffic.onSlots = 20.0;
    s.traffic.offSlots = 50.0;
    s.traffic.queueLimit = 32;
    s.scheduler.kind = mac::SchedulerKind::ProportionalFair;
    s.scheduler.pfHorizonSlots = 48.0;

    NetworkSpec t = NetworkSpec::fromConfig(s.toConfig());
    EXPECT_EQ(t.topology.rows, 2);
    EXPECT_EQ(t.topology.cols, 4);
    EXPECT_TRUE(t.multicell());
    EXPECT_DOUBLE_EQ(t.topology.cellSpacingM, 300.0);
    EXPECT_DOUBLE_EQ(t.topology.cellRadiusM, 140.0);
    EXPECT_DOUBLE_EQ(t.topology.minDistanceM, 15.0);
    EXPECT_DOUBLE_EQ(t.topology.pathloss.refSnrDb, 47.0);
    EXPECT_DOUBLE_EQ(t.topology.pathloss.refDistanceM, 12.0);
    EXPECT_DOUBLE_EQ(t.topology.pathloss.exponent, 3.2);
    EXPECT_DOUBLE_EQ(t.topology.pathloss.shadowSigmaDb, 5.0);
    EXPECT_EQ(t.traffic.kind, mac::TrafficKind::OnOff);
    EXPECT_DOUBLE_EQ(t.traffic.load, 0.7);
    EXPECT_DOUBLE_EQ(t.traffic.onSlots, 20.0);
    EXPECT_DOUBLE_EQ(t.traffic.offSlots, 50.0);
    EXPECT_EQ(t.traffic.queueLimit, 32);
    EXPECT_EQ(t.scheduler.kind,
              mac::SchedulerKind::ProportionalFair);
    EXPECT_DOUBLE_EQ(t.scheduler.pfHorizonSlots, 48.0);
}

TEST(MulticellSpec, GridPresetsAreMulticell)
{
    NetworkSpec mobile = networkPreset("urban-mobile");
    EXPECT_TRUE(mobile.multicell());
    EXPECT_TRUE(mobile.mobility.enabled());
    EXPECT_EQ(mobile.mobility.model, MobilityModel::Waypoint);
    NetworkSpec grid = networkPreset("grid-3x3");
    EXPECT_EQ(grid.topology.numCells(), 9);
    EXPECT_EQ(grid.numUsers, 36);
    EXPECT_TRUE(grid.multicell());
    EXPECT_EQ(grid.fidelity.mode, FidelityMode::Analytic);
    NetworkSpec dense = networkPreset("dense-urban-10k");
    EXPECT_EQ(dense.topology.numCells(), 100);
    EXPECT_GE(dense.numUsers, 10000);
    EXPECT_EQ(dense.scheduler.kind,
              mac::SchedulerKind::ProportionalFair);
    EXPECT_EQ(dense.traffic.kind, mac::TrafficKind::OnOff);
}

TEST(MulticellSpec, DefaultSpecStaysOnTheLegacySingleCellPath)
{
    NetworkSpec s;
    EXPECT_FALSE(s.multicell());
    EXPECT_EQ(s.topology.numCells(), 1);
    NetworkSim sim(s);
    EXPECT_EQ(sim.topology(), nullptr);
}

// ---------------------------------------- determinism (the bar)

TEST(Multicell, Grid3x3BitIdenticalAt1_2_8Threads)
{
    NetworkSpec spec = networkPreset("grid-3x3");
    spec.calibrationFile = calibrationPath();
    expectThreadCountInvariant(spec, 120);
}

TEST(Multicell, DenseUrban10kBitIdenticalAt1_2_8Threads)
{
    NetworkSpec spec = networkPreset("dense-urban-10k");
    spec.calibrationFile = calibrationPath();
    expectThreadCountInvariant(spec, 16);
}

TEST(Multicell, FullPhyRungBitIdenticalAt1_2_8Threads)
{
    // The bit-exact rung at conditioned SINR: a small grid so the
    // PHY cost stays test-sized.
    NetworkSpec spec = networkPreset("grid-3x3");
    spec.numUsers = 8;
    spec.topology.rows = 2;
    spec.topology.cols = 2;
    spec.link.payloadBits = 400;
    spec.fidelity.mode = FidelityMode::Full;
    spec.calibrationFile.clear();
    expectThreadCountInvariant(spec, 40);
}

// ------------------------------------- SoA / per-user equivalence

namespace {

void
expectSameResult(const NetworkResult &a, const NetworkResult &b)
{
    ASSERT_EQ(a.users.size(), b.users.size());
    for (size_t u = 0; u < a.users.size(); ++u)
        expectSameStats(a.users[u], b.users[u],
                        static_cast<int>(u));
    expectSameStats(a.aggregate, b.aggregate, -1);
}

} // namespace

TEST(Multicell, EngineIsNotASpecKey)
{
    // The per-user walk is a test-only oracle: no spec string
    // selects an engine.
    li::Config cfg = networkPreset("grid-3x3").toConfig();
    cfg.set("engine", "soa");
    EXPECT_EXIT(NetworkSpec::fromConfig(cfg),
                testing::ExitedWithCode(1),
                "unknown NetworkSpec key 'engine'");
}

TEST(Multicell, SoaEngineMatchesPerUserOracle)
{
    // The acceptance property of the SoA engine: it produces the
    // per-user oracle's NetworkResult bit-for-bit, including
    // floating-point moments, on a mixed RR/PF x fidelity grid.
    NetworkSpec spec = networkPreset("grid-3x3");
    spec.calibrationFile = calibrationPath();
    for (auto kind : {mac::SchedulerKind::RoundRobin,
                      mac::SchedulerKind::ProportionalFair}) {
        spec.scheduler.kind = kind;
        NetworkSim sim(spec);
        expectSameResult(runPerUserReference(sim, 120),
                         sim.run(120, 2));
    }
}

TEST(Multicell, SoaEngineMatchesPerUserOracleOnFullPhyRung)
{
    NetworkSpec spec = networkPreset("grid-3x3");
    spec.numUsers = 8;
    spec.topology.rows = 2;
    spec.topology.cols = 2;
    spec.link.payloadBits = 400;
    spec.fidelity.mode = FidelityMode::Full;
    spec.calibrationFile.clear();
    NetworkSim sim(spec);
    expectSameResult(runPerUserReference(sim, 40), sim.run(40, 2));
}

TEST(Multicell, SoaCacheReuseDoesNotChangeResults)
{
    // NetworkSim keeps the SoA engine's derived state, and the |h|^2
    // memo of every (slot, cell) grant, across run() calls; a rerun
    // on a warm cache must be bit-identical to a cold run of the
    // same length. The memo grows with the horizon, so reruns go
    // both ways: shorter then longer (the longer run fills the new
    // slots) and longer then shorter (the shorter one reads a
    // prefix). Cases: RR, PF (whose pick reads the memo in phase 1
    // too) and handovers (users change the cell whose entry they
    // hit).
    NetworkSpec grid = networkPreset("grid-3x3");
    grid.calibrationFile = calibrationPath();
    NetworkSpec pf = networkPreset("dense-urban-10k");
    pf.calibrationFile = calibrationPath();
    pf.topology.rows = 2;
    pf.topology.cols = 2;
    pf.numUsers = 240;
    NetworkSpec mobile = networkPreset("urban-mobile");
    mobile.calibrationFile = calibrationPath();
    struct Case {
        const char *name;
        NetworkSpec spec;
        std::uint64_t shorter, longer;
    };
    for (const Case &c : {Case{"grid-3x3", grid, 60, 100},
                          Case{"pf", pf, 120, 200},
                          Case{"urban-mobile", mobile, 300, 600}}) {
        SCOPED_TRACE(c.name);
        const NetworkResult cold_short = NetworkSim(c.spec).run(c.shorter, 2);
        const NetworkResult cold_long = NetworkSim(c.spec).run(c.longer, 2);
        if (c.spec.mobility.enabled()) {
            EXPECT_GT(cold_long.aggregate.handovers, 0u);
        }
        NetworkSim up(c.spec);
        expectSameResult(cold_short, up.run(c.shorter, 2));
        expectSameResult(cold_long, up.run(c.longer, 3));
        expectSameResult(cold_long, up.run(c.longer, 1));
        NetworkSim down(c.spec);
        expectSameResult(cold_long, down.run(c.longer, 2));
        expectSameResult(cold_short, down.run(c.shorter, 3));
    }
}

/**
 * The dense-urban-10k acceptance bar of the SoA refactor, pinned
 * under the forced scalar kernel backend: the batched engine must
 * reproduce the per-user oracle's UserStats bit-for-bit for every
 * one of the 10k+ users. Cross-backend exactness of the kernels
 * themselves is pinned in test_simd_kernels.cc, so scalar here
 * extends to every backend by transitivity.
 */
TEST(Multicell, SoaMatchesPerUserOracleOnDenseUrban10kScalarBackend)
{
    struct RestoreBackend {
        ~RestoreBackend()
        {
            kernels::setBackend(
                kernels::availableBackends().back());
        }
    } restore;
    ASSERT_TRUE(kernels::setBackend(kernels::Backend::Scalar));

    NetworkSpec spec = networkPreset("dense-urban-10k");
    spec.calibrationFile = calibrationPath();
    NetworkSim sim(spec);
    expectSameResult(runPerUserReference(sim, 16), sim.run(16, 2));
}

namespace {

/** dense-urban-10k cut to 3x3 cells of ~100 users, still PF. */
NetworkSpec
denseCut()
{
    NetworkSpec spec = networkPreset("dense-urban-10k");
    spec.calibrationFile = calibrationPath();
    spec.topology.rows = 3;
    spec.topology.cols = 3;
    spec.numUsers = 900;
    return spec;
}

} // namespace

TEST(Multicell, SoaMatchesPerUserOracleOnSpreadPfAverages)
{
    // Past the first ON bursts the PF averages have spread apart,
    // so the engine's bounded pick skips most candidates; it must
    // still grant what the oracle's exhaustive pick grants.
    NetworkSim sim(denseCut());
    expectSameResult(runPerUserReference(sim, 240), sim.run(240, 2));
}

TEST(Multicell, EveryCampaignRepMatchesPerUserOracle)
{
    // Replications share a process and a calibration table but not
    // fader banks, so no rep may inherit another's rate bounds.
    RunRequest req;
    req.spec = denseCut();
    req.spec.reps = 2;
    req.slots = 200;
    req.threads = 2;
    std::vector<NetworkResult> runs;
    runCampaignShard(req, [&](int, const NetworkResult &res) {
        runs.push_back(res);
    });
    ASSERT_EQ(runs.size(), 2u);
    EXPECT_NE(runs[0].spec.seed, runs[1].spec.seed);
    for (const NetworkResult &res : runs)
        expectSameResult(
            runPerUserReference(NetworkSim(res.spec), req.slots), res);
}

// ------------------------------------------------ engine behavior

TEST(Multicell, SchedulerArbitratesOneGrantPerCellPerSlot)
{
    NetworkSpec spec = networkPreset("grid-3x3");
    spec.calibrationFile = calibrationPath();
    // Full-buffer traffic: every cell is always backlogged, so the
    // grant count is exactly cells x slots -- the scheduler, not
    // the per-user loop, owns the medium.
    spec.traffic.kind = mac::TrafficKind::FullBuffer;
    const std::uint64_t slots = 100;
    NetworkSim sim(spec);
    NetworkResult res = sim.run(slots, 2);
    EXPECT_EQ(res.cells, 9);
    EXPECT_EQ(res.aggregate.framesSent, 9 * slots);
    // Round robin over equal-population cells: per-user grants are
    // exactly fair.
    for (const UserStats &u : res.users)
        EXPECT_EQ(u.framesSent, slots / 4) << "user " << u.user;
}

TEST(Multicell, TopologyDrivesPerUserLinkBudgets)
{
    NetworkSpec spec = networkPreset("grid-3x3");
    spec.calibrationFile = calibrationPath();
    NetworkSim sim(spec);
    const Topology *topo = sim.topology();
    ASSERT_NE(topo, nullptr);
    EXPECT_EQ(topo->numUsers(), 36);
    EXPECT_EQ(topo->numCells(), 9);

    NetworkResult res = sim.run(60, 2);
    bool snrs_differ = false;
    for (const UserStats &u : res.users) {
        EXPECT_EQ(u.servingCell, topo->servingCell(u.user));
        EXPECT_DOUBLE_EQ(u.meanSnrDb,
                         topo->servingSnrDb(u.user));
        snrs_differ |= u.meanSnrDb != res.users[0].meanSnrDb;
    }
    EXPECT_TRUE(snrs_differ)
        << "placement + shadowing must differentiate users";
    // Transmissions happened and observed interference: recorded
    // SINR must sit below the noise-limited serving SNR on
    // average for at least the cell-edge users.
    ASSERT_GT(res.aggregate.sinrDb.count(), 0u);
    EXPECT_LT(res.aggregate.sinrDb.mean(),
              res.aggregate.meanSnrDb + 40.0);
}

TEST(Multicell, AnalyticRungTracksFullPhy)
{
    // Same small deployment through both fidelity rungs: per-frame
    // outcomes differ (different randomness) but the aggregate
    // frame success rate must agree within sampling tolerance --
    // the calibrated-table-at-SINR argument of the fidelity
    // ladder, now with interference folded in.
    NetworkSpec spec = networkPreset("grid-3x3");
    spec.numUsers = 12;
    spec.topology.rows = 2;
    spec.topology.cols = 2;
    spec.link.payloadBits = 1000;
    spec.traffic.kind = mac::TrafficKind::FullBuffer;
    spec.calibrationFile = calibrationPath();

    NetworkSpec full = spec;
    full.fidelity.mode = FidelityMode::Full;
    NetworkSpec fast = spec;
    fast.fidelity.mode = FidelityMode::Analytic;

    const std::uint64_t slots = 150;
    NetworkResult r_full = NetworkSim(full).run(slots, 2);
    NetworkResult r_fast = NetworkSim(fast).run(slots, 2);

    EXPECT_EQ(r_full.aggregate.fullPhyFrames,
              r_full.aggregate.framesSent);
    EXPECT_EQ(r_fast.aggregate.analyticFrames,
              r_fast.aggregate.framesSent);
    EXPECT_EQ(r_full.aggregate.framesSent,
              r_fast.aggregate.framesSent)
        << "scheduling is fidelity-independent";
    EXPECT_NEAR(r_fast.aggregate.frameSuccessRate(),
                r_full.aggregate.frameSuccessRate(), 0.12);
}

TEST(Multicell, QueuesAccountArrivalsDropsAndWaits)
{
    NetworkSpec spec = networkPreset("grid-3x3");
    spec.calibrationFile = calibrationPath();
    // Overload one small deployment so queues saturate.
    spec.numUsers = 8;
    spec.topology.rows = 2;
    spec.topology.cols = 2;
    spec.traffic.kind = mac::TrafficKind::Poisson;
    spec.traffic.load = 1.5;
    spec.traffic.queueLimit = 4;
    NetworkResult res = NetworkSim(spec).run(200, 2);
    EXPECT_GT(res.aggregate.arrivals, 0u);
    EXPECT_GT(res.aggregate.queueDrops, 0u)
        << "4-deep queues under 3x overload must drop";
    EXPECT_GT(res.aggregate.queueWaitSlots.count(), 0u);
    EXPECT_GT(res.aggregate.queueWaitSlots.mean(), 0.5);
    EXPECT_LT(res.aggregate.queueDrops, res.aggregate.arrivals);
}
