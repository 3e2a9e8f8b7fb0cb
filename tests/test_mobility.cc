/**
 * @file
 * Mobility, handover and churn tests: trajectories are pure
 * functions of (seed, user, slot); A3 handover respects hysteresis
 * and time-to-trigger; churn departures settle every in-flight
 * packet (trace conservation); and the `urban-mobile` preset runs
 * bit-identically across 1/2/8 worker threads and equal to the
 * per-user oracle, packet trace included.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "mac/packet_trace.hh"
#include "peruser_reference.hh"
#include "sim/mobility.hh"
#include "sim/network_sim.hh"
#include "sim/topology.hh"

using namespace wilis;
using namespace wilis::sim;

namespace {

std::string
calibrationPath()
{
    return std::string(WILIS_SOURCE_DIR) +
           "/data/network_calibration.txt";
}

/** A compact multi-cell deployment for the runtime unit tests. */
Topology
smallTopology(int users = 48, std::uint64_t seed = 7)
{
    TopologySpec ts;
    ts.rows = 3;
    ts.cols = 3;
    ts.cellSpacingM = 150.0;
    ts.cellRadiusM = 75.0;
    ts.minDistanceM = 5.0;
    return Topology(ts, users, seed);
}

MobilitySpec
movingSpec(MobilityModel model = MobilityModel::Waypoint)
{
    MobilitySpec m;
    m.model = model;
    m.speedMps = 30.0;
    m.handoverHystDb = 2.0;
    m.handoverTttSlots = 100;
    return m;
}

/** Drive @p rt through every epoch in [0, slots]. */
std::vector<MobilityRuntime::Event>
runEpochs(MobilityRuntime &rt, std::uint64_t slots)
{
    std::vector<MobilityRuntime::Event> all;
    std::vector<MobilityRuntime::Event> out;
    for (std::uint64_t t = 0; t <= slots; t += rt.epochSlots()) {
        out.clear();
        rt.epoch(t, out);
        // Per-epoch contract: user-id order, at most one event per
        // user.
        for (size_t i = 1; i < out.size(); ++i)
            EXPECT_GT(out[i].user, out[i - 1].user)
                << "epoch " << t;
        all.insert(all.end(), out.begin(), out.end());
    }
    return all;
}

} // namespace

// --------------------------------------------------- trajectories

TEST(Mobility, TrajectoriesArePureFunctionsOfSeedUserSlot)
{
    const Topology topo = smallTopology();
    for (auto model : {MobilityModel::Line, MobilityModel::Orbit,
                       MobilityModel::Waypoint}) {
        const MobilitySpec m = movingSpec(model);
        MobilityRuntime a(m, topo, 7, 2000.0);
        MobilityRuntime b(m, topo, 7, 2000.0);
        // b advances through epochs; positions must not care -- the
        // trajectory has no integration state.
        runEpochs(b, 2000);
        for (int u = 0; u < topo.numUsers(); u += 7) {
            // Out-of-order queries on a.
            for (std::uint64_t t : {5000u, 0u, 1234u, 99999u}) {
                const Position pa = a.positionAt(u, t);
                const Position pb = b.positionAt(u, t);
                EXPECT_EQ(pa.x, pb.x) << "user " << u << " t " << t;
                EXPECT_EQ(pa.y, pb.y) << "user " << u << " t " << t;
            }
            // t = 0 is the drop position for every model.
            const Position p0 = a.positionAt(u, 0);
            EXPECT_NEAR(p0.x, topo.userPosition(u).x, 1e-9);
            EXPECT_NEAR(p0.y, topo.userPosition(u).y, 1e-9);
        }
        // A different master seed must move users differently.
        MobilityRuntime c(m, topo, 8, 2000.0);
        bool differs = false;
        for (int u = 0; u < topo.numUsers(); ++u) {
            const Position pa = a.positionAt(u, 4000);
            const Position pc = c.positionAt(u, 4000);
            differs |= pa.x != pc.x || pa.y != pc.y;
        }
        EXPECT_TRUE(differs);
    }
}

TEST(Mobility, TrajectoriesMoveAndStayNearTheDeployment)
{
    const Topology topo = smallTopology();
    const TopologySpec &ts = topo.spec();
    const double xlo = -ts.cellRadiusM;
    const double xhi =
        (ts.cols - 1) * ts.cellSpacingM + ts.cellRadiusM;
    const double ylo = -ts.cellRadiusM;
    const double yhi =
        (ts.rows - 1) * ts.cellSpacingM + ts.cellRadiusM;
    for (auto model : {MobilityModel::Line, MobilityModel::Orbit,
                       MobilityModel::Waypoint}) {
        MobilityRuntime rt(movingSpec(model), topo, 7, 2000.0);
        // Orbits circle a point one lap radius off the drop
        // position, so they may overhang the box by up to two drop
        // radii; line and waypoint paths stay strictly inside.
        const double slack =
            model == MobilityModel::Orbit ? 2.0 * ts.cellRadiusM
                                          : 1e-9;
        bool moved = false;
        for (int u = 0; u < topo.numUsers(); ++u) {
            for (std::uint64_t t = 0; t <= 20000; t += 500) {
                const Position p = rt.positionAt(u, t);
                EXPECT_GE(p.x, xlo - slack);
                EXPECT_LE(p.x, xhi + slack);
                EXPECT_GE(p.y, ylo - slack);
                EXPECT_LE(p.y, yhi + slack);
                const Position p0 = rt.positionAt(u, 0);
                moved |= std::hypot(p.x - p0.x, p.y - p0.y) > 10.0;
            }
        }
        EXPECT_TRUE(moved) << kMobilityModelNames.name(model);
    }
}

// ---------------------------------------------- handover dynamics

TEST(Mobility, HugeHysteresisSuppressesEveryHandover)
{
    const Topology topo = smallTopology();
    MobilitySpec m = movingSpec();
    // No realizable gain differential clears 200 dB (the full
    // deployment diagonal plus shadowing tails is ~100 dB), so
    // every handover must be suppressed. A merely-large margin
    // (say 60 dB) is NOT enough on long waypoint runs.
    m.handoverHystDb = 200.0;
    m.handoverTttSlots = 0;
    MobilityRuntime rt(m, topo, 7, 2000.0);
    const auto events = runEpochs(rt, 20000);
    for (const auto &ev : events)
        EXPECT_NE(ev.kind, MobilityRuntime::Event::Kind::Handover);
    for (int u = 0; u < topo.numUsers(); ++u) {
        EXPECT_EQ(rt.handovers(u), 0u);
        EXPECT_EQ(rt.firstHandoverSlot(u), UINT64_MAX);
    }
}

TEST(Mobility, TimeToTriggerDampsHandoversAndPingPong)
{
    const Topology topo = smallTopology();
    MobilitySpec eager = movingSpec();
    eager.handoverTttSlots = 0;
    MobilitySpec patient = movingSpec();
    patient.handoverTttSlots = 600;
    MobilityRuntime fast(eager, topo, 7, 2000.0);
    MobilityRuntime slow(patient, topo, 7, 2000.0);
    runEpochs(fast, 20000);
    runEpochs(slow, 20000);
    std::uint64_t ho_fast = 0, ho_slow = 0;
    for (int u = 0; u < topo.numUsers(); ++u) {
        ho_fast += fast.handovers(u);
        ho_slow += slow.handovers(u);
        // Ping-pongs are a subset of handovers, and the first
        // handover slot exists exactly when any handover happened.
        EXPECT_LE(fast.pingPongs(u), fast.handovers(u));
        EXPECT_EQ(fast.handovers(u) == 0,
                  fast.firstHandoverSlot(u) == UINT64_MAX);
        if (fast.handovers(u) > 0) {
            EXPECT_LE(fast.firstHandoverSlot(u), 20000u);
        }
    }
    EXPECT_GT(ho_fast, 0u) << "30 m/s across 150 m cells must "
                              "produce handovers";
    EXPECT_LE(ho_slow, ho_fast)
        << "a longer time-to-trigger cannot add handovers";
}

TEST(Mobility, EventCellsAreConsistent)
{
    const Topology topo = smallTopology();
    MobilitySpec m = movingSpec();
    m.churnRate = 0.002;
    MobilityRuntime rt(m, topo, 7, 2000.0);
    const auto events = runEpochs(rt, 20000);
    bool saw_ho = false, saw_join = false, saw_leave = false;
    for (const auto &ev : events) {
        switch (ev.kind) {
          case MobilityRuntime::Event::Kind::Handover:
            saw_ho = true;
            EXPECT_NE(ev.fromCell, ev.toCell);
            break;
          case MobilityRuntime::Event::Kind::Join:
            // Rejoin re-associates with the strongest cell at the
            // current position; fromCell is only the pre-departure
            // cell, so the two may differ.
            saw_join = true;
            break;
          case MobilityRuntime::Event::Kind::Leave:
            saw_leave = true;
            EXPECT_EQ(ev.fromCell, ev.toCell);
            break;
        }
        EXPECT_GE(ev.fromCell, 0);
        EXPECT_LT(ev.fromCell, topo.numCells());
        EXPECT_GE(ev.toCell, 0);
        EXPECT_LT(ev.toCell, topo.numCells());
    }
    EXPECT_TRUE(saw_ho);
    EXPECT_TRUE(saw_join);
    EXPECT_TRUE(saw_leave);
}

TEST(Mobility, ChurnTogglesSessionsConsistently)
{
    const Topology topo = smallTopology();
    MobilitySpec m; // churn only, no motion
    m.churnRate = 0.01;
    ASSERT_TRUE(m.enabled());
    MobilityRuntime rt(m, topo, 11, 2000.0);
    EXPECT_EQ(rt.epochSlots(), 64u);
    const auto events = runEpochs(rt, 30000);
    std::uint64_t joins = 0, leaves = 0;
    for (const auto &ev : events) {
        joins += ev.kind == MobilityRuntime::Event::Kind::Join;
        leaves += ev.kind == MobilityRuntime::Event::Kind::Leave;
    }
    EXPECT_GT(leaves, 0u);
    std::uint64_t joins_acc = 0, leaves_acc = 0;
    for (int u = 0; u < topo.numUsers(); ++u) {
        joins_acc += rt.joins(u);
        leaves_acc += rt.leaves(u);
        // Sessions start active: every join re-enters an earlier
        // leave, and the deficit says whether the user is out now.
        EXPECT_LE(rt.joins(u), rt.leaves(u));
        EXPECT_EQ(rt.leaves(u) - rt.joins(u),
                  rt.userActive(u) ? 0u : 1u);
    }
    EXPECT_EQ(joins, joins_acc);
    EXPECT_EQ(leaves, leaves_acc);
}

// ------------------------------------- full-run stats + the trace

namespace {

NetworkSpec
urbanMobileSpec()
{
    NetworkSpec spec = networkPreset("urban-mobile");
    spec.calibrationFile = calibrationPath();
    return spec;
}

void
expectSameMobileStats(const UserStats &a, const UserStats &b,
                      int user)
{
    EXPECT_EQ(a.framesSent, b.framesSent) << "user " << user;
    EXPECT_EQ(a.framesOk, b.framesOk) << "user " << user;
    EXPECT_EQ(a.delivered, b.delivered) << "user " << user;
    EXPECT_EQ(a.dropped, b.dropped) << "user " << user;
    EXPECT_EQ(a.goodputBits, b.goodputBits) << "user " << user;
    EXPECT_EQ(a.arrivals, b.arrivals) << "user " << user;
    EXPECT_EQ(a.queueDrops, b.queueDrops) << "user " << user;
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
    EXPECT_EQ(a.latencySlots.count(), b.latencySlots.count())
        << "user " << user;
    EXPECT_EQ(a.sinrDb.mean(), b.sinrDb.mean()) << "user " << user;
}

} // namespace

TEST(MobilityRun, StatsAccountHandoverSplitExactly)
{
    NetworkSpec spec = urbanMobileSpec();
    const std::uint64_t slots = 800;
    NetworkResult res = NetworkSim(spec).run(slots, 2);
    EXPECT_GT(res.aggregate.handovers, 0u);
    EXPECT_GT(res.aggregate.leaves, 0u);
    for (const UserStats &u : res.users) {
        EXPECT_EQ(u.preHoSlots + u.postHoSlots, slots)
            << "user " << u.user;
        EXPECT_EQ(u.goodputBitsPreHo + u.goodputBitsPostHo,
                  u.goodputBits)
            << "user " << u.user;
        if (u.handovers == 0) {
            EXPECT_EQ(u.postHoSlots, 0u) << "user " << u.user;
            EXPECT_EQ(u.goodputBitsPostHo, 0u)
                << "user " << u.user;
        } else {
            EXPECT_GT(u.postHoSlots, 0u) << "user " << u.user;
        }
        EXPECT_LE(u.pingPongs, u.handovers) << "user " << u.user;
    }
}

TEST(MobilityRun, DepartedUsersSettleEveryPacketInTheTrace)
{
    NetworkSpec spec = urbanMobileSpec();
    spec.trace = true;
    NetworkResult res = NetworkSim(spec).run(800, 2);
    ASSERT_NE(res.trace, nullptr);

    struct Account {
        std::uint64_t enq = 0, ack = 0, expire = 0, qdrop = 0;
        std::uint64_t tail_rejected = 0;
        std::uint64_t last_session_slot = 0;
        bool departed = false, has_session_event = false;
    };
    std::map<int, Account> acct;
    std::uint64_t ho = 0, joins = 0, leaves = 0;
    for (const auto &e : res.trace->entries()) {
        Account &a = acct[e.user];
        switch (e.event) {
          case mac::PacketEvent::Enqueue:
            ++a.enq;
            break;
          case mac::PacketEvent::Ack:
            ++a.ack;
            break;
          case mac::PacketEvent::Expire:
            ++a.expire;
            break;
          case mac::PacketEvent::QueueDrop:
            // A tail drop (arg0 = 0) rejects the arrival before it
            // ever enters the queue -- there is no matching enq --
            // while evictions (1) and departure flushes (2) settle
            // packets that did enqueue.
            if (e.arg0 == 0)
                ++a.tail_rejected;
            else
                ++a.qdrop;
            break;
          case mac::PacketEvent::Handover:
            ++ho;
            EXPECT_NE(e.arg0, e.cell);
            break;
          case mac::PacketEvent::Join:
          case mac::PacketEvent::Leave:
            if (!a.has_session_event ||
                e.slot >= a.last_session_slot) {
                a.last_session_slot = e.slot;
                a.departed = e.event == mac::PacketEvent::Leave;
            }
            a.has_session_event = true;
            joins += e.event == mac::PacketEvent::Join;
            leaves += e.event == mac::PacketEvent::Leave;
            break;
          default:
            break;
        }
    }
    // The trace and the stats surface agree on mobility activity.
    EXPECT_EQ(ho, res.aggregate.handovers);
    EXPECT_EQ(joins, res.aggregate.joins);
    EXPECT_EQ(leaves, res.aggregate.leaves);
    EXPECT_GT(leaves, 0u);

    int settled_users = 0;
    for (const auto &kv : acct) {
        const Account &a = kv.second;
        // Every settled outcome stems from an enqueue...
        EXPECT_LE(a.ack + a.expire + a.qdrop, a.enq)
            << "user " << kv.first;
        // ...and a departure settles everything: the flush drops
        // the queue and the ARQ abort drains the window, so a user
        // who is out at the end of the run has no packet
        // unaccounted for.
        if (a.departed) {
            ++settled_users;
            EXPECT_EQ(a.enq, a.ack + a.expire + a.qdrop)
                << "user " << kv.first;
        }
    }
    EXPECT_GT(settled_users, 0);
}

TEST(MobilityRun, UrbanMobileBitIdenticalAcrossThreadsAndOracle)
{
    NetworkSpec spec = urbanMobileSpec();
    spec.trace = true;
    const std::uint64_t slots = 600;

    NetworkResult ref = NetworkSim(spec).run(slots, 1);
    ASSERT_NE(ref.trace, nullptr);
    EXPECT_GT(ref.aggregate.handovers, 0u);
    const std::string ref_text = ref.trace->toText();

    const std::pair<const char *, NetworkResult> runs[] = {
        {"soa @ 2 threads", NetworkSim(spec).run(slots, 2)},
        {"soa @ 8 threads", NetworkSim(spec).run(slots, 8)},
        {"the per-user oracle",
         runPerUserReference(NetworkSim(spec), slots)},
    };
    for (const auto &[name, r] : runs) {
        ASSERT_EQ(r.users.size(), ref.users.size());
        for (size_t u = 0; u < ref.users.size(); ++u)
            expectSameMobileStats(ref.users[u], r.users[u],
                                  static_cast<int>(u));
        expectSameMobileStats(ref.aggregate, r.aggregate, -1);
        ASSERT_NE(r.trace, nullptr);
        EXPECT_EQ(ref_text, r.trace->toText()) << name << " diverged";
    }
}

TEST(MobilityRun, PfStrictPriorityMatchesOracleAcrossHandovers)
{
    // Handovers move serving gains, and with them the engine's PF
    // rate bounds; control traffic narrows picks to urgent users.
    // The bounded pick must still grant what the oracle's
    // exhaustive one does.
    NetworkSpec spec = urbanMobileSpec();
    spec.scheduler.kind = mac::SchedulerKind::ProportionalFair;
    spec.traffic.qdisc = mac::QdiscKind::StrictPriority;
    spec.traffic.controlRate = 0.05;
    const std::uint64_t slots = 600;

    NetworkResult soa = NetworkSim(spec).run(slots, 2);
    EXPECT_GT(soa.aggregate.handovers, 0u);
    NetworkResult ref = runPerUserReference(NetworkSim(spec), slots);
    ASSERT_EQ(soa.users.size(), ref.users.size());
    for (size_t u = 0; u < ref.users.size(); ++u)
        expectSameMobileStats(ref.users[u], soa.users[u],
                              static_cast<int>(u));
    expectSameMobileStats(ref.aggregate, soa.aggregate, -1);
}

TEST(MobilityRun, StaticRunsAreUntouchedByTheMobilityLayer)
{
    // The whole feature is opt-in: a static preset must neither
    // move users nor emit session events, and its stats must say
    // so (all slots "pre-handover").
    NetworkSpec spec = networkPreset("grid-3x3");
    spec.calibrationFile = calibrationPath();
    spec.trace = true;
    const std::uint64_t slots = 120;
    NetworkResult res = NetworkSim(spec).run(slots, 2);
    EXPECT_EQ(res.aggregate.handovers, 0u);
    EXPECT_EQ(res.aggregate.joins, 0u);
    EXPECT_EQ(res.aggregate.leaves, 0u);
    ASSERT_NE(res.trace, nullptr);
    for (const auto &e : res.trace->entries()) {
        EXPECT_NE(e.event, mac::PacketEvent::Handover);
        EXPECT_NE(e.event, mac::PacketEvent::Join);
        EXPECT_NE(e.event, mac::PacketEvent::Leave);
    }
    for (const UserStats &u : res.users) {
        EXPECT_EQ(u.preHoSlots, slots);
        EXPECT_EQ(u.postHoSlots, 0u);
        EXPECT_EQ(u.goodputBitsPostHo, 0u);
    }
}
