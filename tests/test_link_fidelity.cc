/**
 * @file
 * Hybrid-fidelity validation suite. The analytic fast path is only
 * admissible if it is *validated*, not just wired, so this file
 * pins:
 *  - the calibration table against fresh bit-exact PHY measurements
 *    per (rate, SNR bin), with independent seeds;
 *  - per-user PER and goodput of `analytic` against `full` on the
 *    cell-16 and cell-mobile presets (rate pinned, so the
 *    comparison is a clean per-link error-process check);
 *  - bit-identical results at 1/2/8 worker threads in `auto` mode
 *    (the mixed-fidelity schedule must be a pure function of the
 *    slot index, never of the sharding);
 *  - the NetworkSpec fidelity-key config round-trip and the
 *    calibration table serialize/parse round-trip.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/kernels.hh"
#include "common/random.hh"
#include "sim/link_fidelity.hh"
#include "sim/network_sim.hh"
#include "sim/sweep.hh"

using namespace wilis;
using namespace wilis::sim;

namespace {

/** Small, test-sized calibration geometry shared by the suite. */
softphy::CalibrationTable::BuildSpec
testBuildSpec()
{
    softphy::CalibrationTable::BuildSpec b;
    b.payloadBits = 400;
    // Cover the full window the 14 +- 8 dB test cells can reach
    // ([-12, 30] dB, what calibrationBuildSpec would derive), so no
    // lookup leaves the calibrated range.
    b.snrLoDb = -12.0;
    b.snrStepDb = 2.0;
    b.numBins = 21;
    b.packetsPerCell = 48;
    b.threads = 2;
    return b;
}

/** The shared table: built once, reused across the suite. */
std::shared_ptr<const softphy::CalibrationTable>
sharedTable()
{
    static std::shared_ptr<const softphy::CalibrationTable> table =
        std::make_shared<const softphy::CalibrationTable>(
            softphy::CalibrationTable::build(testBuildSpec()));
    return table;
}

/** Test cell matching the table geometry, rate pinned. */
NetworkSpec
fidelityCell(const char *preset, int users)
{
    NetworkSpec s = networkPreset(preset);
    s.numUsers = users;
    s.link.payloadBits = 400;
    s.snrSpreadDb = 8.0;
    s.seed = 0xF1DE;
    // Pin SoftRate: pber can never leave [0, 2], so the rate stays
    // put and the PER comparison isolates the link error process
    // from adaptation-trajectory divergence.
    s.pberLo = 0.0;
    s.pberHi = 2.0;
    return s;
}

} // namespace

// ------------------------------------------------ policy schedule

TEST(FidelityPolicy, ScheduleIsAPureSlotFunction)
{
    FidelityPolicy p;
    p.mode = FidelityMode::Auto;
    p.warmupSlots = 4;
    p.refreshPeriod = 8;
    p.refreshSlots = 2;

    // Warm-up prefix, then 2-of-8 refresh windows.
    for (std::uint64_t t = 0; t < 4; ++t)
        EXPECT_TRUE(p.fullPhySlot(t)) << "warmup slot " << t;
    for (std::uint64_t t : {4ull, 5ull, 12ull, 13ull, 20ull})
        EXPECT_TRUE(p.fullPhySlot(t)) << "refresh slot " << t;
    for (std::uint64_t t : {6ull, 7ull, 8ull, 11ull, 14ull, 19ull})
        EXPECT_FALSE(p.fullPhySlot(t)) << "analytic slot " << t;

    p.mode = FidelityMode::Full;
    EXPECT_TRUE(p.fullPhySlot(1000));
    p.mode = FidelityMode::Analytic;
    EXPECT_FALSE(p.fullPhySlot(0));

    // Degenerate auto schedules never refresh after warm-up.
    p.mode = FidelityMode::Auto;
    p.refreshSlots = 0;
    EXPECT_FALSE(p.fullPhySlot(100));
}

// ------------------------------------------------- config plumbing

TEST(NetworkSpecFidelity, ConfigRoundTrips)
{
    NetworkSpec s;
    s.fidelity.mode = FidelityMode::Auto;
    s.fidelity.warmupSlots = 7;
    s.fidelity.refreshPeriod = 31;
    s.fidelity.refreshSlots = 3;
    s.calibrationFile = "data/network_calibration.txt";

    NetworkSpec t = NetworkSpec::fromConfig(s.toConfig());
    EXPECT_EQ(t.fidelity.mode, FidelityMode::Auto);
    EXPECT_EQ(t.fidelity.warmupSlots, 7u);
    EXPECT_EQ(t.fidelity.refreshPeriod, 31u);
    EXPECT_EQ(t.fidelity.refreshSlots, 3u);
    EXPECT_EQ(t.calibrationFile, s.calibrationFile);

    // Defaults stay full-fidelity with no calibration file key.
    NetworkSpec d = NetworkSpec::fromConfig(li::Config());
    EXPECT_EQ(d.fidelity.mode, FidelityMode::Full);
    EXPECT_TRUE(d.calibrationFile.empty());
    EXPECT_FALSE(d.toConfig().has("calibration_file"));
}

TEST(NetworkSpecFidelity, PresetsUseTheLadder)
{
    EXPECT_EQ(networkPreset("cell-1k").fidelity.mode,
              FidelityMode::Analytic);
    EXPECT_EQ(networkPreset("cell-1k").numUsers, 1024);
    EXPECT_EQ(networkPreset("dense-analytic").fidelity.mode,
              FidelityMode::Analytic);
    EXPECT_EQ(networkPreset("cell-auto").fidelity.mode,
              FidelityMode::Auto);
    EXPECT_EQ(networkPreset("cell-16").fidelity.mode,
              FidelityMode::Full);
}

// ------------------------------------------- table serialization

TEST(CalibrationTable, SerializeParseRoundTripsExactly)
{
    std::shared_ptr<const softphy::CalibrationTable> t =
        sharedTable();
    softphy::CalibrationTable u =
        softphy::CalibrationTable::parse(t->serialize(), "serialized");

    EXPECT_EQ(u.channelKind(), t->channelKind());
    EXPECT_EQ(u.decoder(), t->decoder());
    EXPECT_EQ(u.softWidth(), t->softWidth());
    EXPECT_EQ(u.payloadBits(), t->payloadBits());
    EXPECT_EQ(u.packetsPerCell(), t->packetsPerCell());
    EXPECT_EQ(u.seed(), t->seed());
    EXPECT_EQ(u.numBins(), t->numBins());
    EXPECT_DOUBLE_EQ(u.snrLoDb(), t->snrLoDb());
    EXPECT_DOUBLE_EQ(u.snrStepDb(), t->snrStepDb());
    for (int r = 0; r < phy::kNumRates; ++r) {
        for (int b = 0; b < t->numBins(); ++b) {
            const softphy::TableCell &a = t->cell(r, b);
            const softphy::TableCell &c = u.cell(r, b);
            EXPECT_EQ(a.frames, c.frames);
            EXPECT_EQ(a.ok, c.ok);
            // %.17g round-trips doubles bit-exactly.
            EXPECT_EQ(a.sumPber, c.sumPber);
            EXPECT_EQ(a.sumLogPberOk, c.sumLogPberOk);
            EXPECT_EQ(a.sumLogPberBad, c.sumLogPberBad);
        }
    }
}

// A bad table file is a clean exit(1) naming the file, not an abort.

TEST(CalibrationTable, CommittedTableIsTheCell16Sweep)
{
    // data/network_calibration.txt is the output of
    // `wilis_cli --network cell-16 --calibrate`. A PHY, channel or
    // seed-parsing change that moves the sweep must regenerate it,
    // and every output pinned on it.
    const softphy::CalibrationTable built =
        softphy::CalibrationTable::build(
            NetworkSim::calibrationBuildSpec(networkPreset("cell-16")));
    std::ifstream in(std::string(WILIS_SOURCE_DIR) +
                     "/data/network_calibration.txt");
    std::ostringstream committed;
    committed << in.rdbuf();
    EXPECT_EQ(built.serialize(), committed.str());
}

TEST(CalibrationTable, BuildIsThreadInvariant)
{
    // The PBER sums are floating point: they match only because the
    // build reduces its packets in (cell, packet) order.
    softphy::CalibrationTable::BuildSpec one = testBuildSpec();
    one.threads = 1;
    softphy::CalibrationTable::BuildSpec eight = testBuildSpec();
    eight.threads = 8;
    EXPECT_EQ(softphy::CalibrationTable::build(one).serialize(),
              softphy::CalibrationTable::build(eight).serialize());
}

TEST(CalibrationTableDeath, MissingFileExitsNamingThePath)
{
    EXPECT_EXIT(softphy::CalibrationTable::load("/nonexistent/table.txt"),
                testing::ExitedWithCode(1),
                "cannot read calibration table /nonexistent/table.txt");
}

TEST(CalibrationTableDeath, DuplicateCellExitsNamingTheLine)
{
    // The committed table with its first cell line (line 13) repeated.
    std::ifstream in(std::string(WILIS_SOURCE_DIR) +
                     "/data/network_calibration.txt");
    std::ostringstream committed;
    committed << in.rdbuf();
    std::string text = committed.str();
    const size_t first = text.find("\ncell ") + 1;
    const size_t next = text.find('\n', first) + 1;
    text.insert(next, text.substr(first, next - first));
    const std::string path = testing::TempDir() + "/wilis_dup_cell.txt";
    std::ofstream(path) << text;
    EXPECT_EXIT(softphy::CalibrationTable::load(path),
                testing::ExitedWithCode(1),
                "wilis_dup_cell.txt:14: duplicate calibration cell "
                "\\(0, 0\\)");
    std::remove(path.c_str());
}

// ------------------------------------------- batched draw sibling

TEST(LinkFidelity, DrawBatchMatchesDrawAtBitForBit)
{
    std::shared_ptr<const softphy::CalibrationTable> t =
        sharedTable();
    const softphy::FlatCalibration flat = t->flatten();

    SplitMix64 rng(0xD4A3);
    const size_t n = 97;
    std::vector<std::int32_t> rates(n);
    std::vector<double> snr(n);
    std::vector<std::uint64_t> keys(n);
    for (size_t i = 0; i < n; ++i) {
        rates[i] = static_cast<std::int32_t>(
            rng.nextBelow(phy::kNumRates));
        // In-range, off both table edges, and the zero-SINR
        // sentinel itself.
        snr[i] = (i % 13 == 0)
                     ? kZeroSinrDb
                     : -20.0 + rng.nextDouble() * 60.0;
        keys[i] = rng.next();
    }
    for (std::uint64_t slot :
         {std::uint64_t(0), std::uint64_t(421)}) {
        std::vector<std::uint8_t> ok(n, 9);
        std::vector<double> pber(n, -1.0);
        kernels::ops().perDrawBatch(flat.view(), rates.data(), snr.data(),
                                    keys.data(), slot, n, ok.data(),
                                    pber.data());
        for (size_t i = 0; i < n; ++i) {
            AnalyticLink link(t.get(), keys[i]);
            const LinkFrameResult fr = link.drawAt(
                static_cast<phy::RateIndex>(rates[i]), slot,
                snr[i]);
            ASSERT_EQ(fr.ok, ok[i] != 0)
                << "entry " << i << " slot " << slot;
            ASSERT_EQ(fr.pber, pber[i])
                << "entry " << i << " slot " << slot;
            ASSERT_FALSE(fr.fullPhy);
        }
    }
}

/**
 * A zero-signal user (sig = 0, so SINR collapses to the shared
 * kZeroSinrDb sentinel rather than -inf) must see identical frame
 * statistics through the scalar drawAt() path and the batched
 * perDrawBatch kernel -- the guarantee that lets the SoA engine feed
 * the sentinel through the kernels unchanged.
 */
TEST(LinkFidelity, ZeroSignalUserIdenticalInScalarAndBatchedPaths)
{
    std::shared_ptr<const softphy::CalibrationTable> t =
        sharedTable();
    const softphy::FlatCalibration flat = t->flatten();
    const std::uint64_t key = 0x5EED;
    AnalyticLink link(t.get(), key);

    const std::int32_t rate = 2;
    std::uint64_t sent = 0, ok_scalar = 0, ok_batch = 0;
    for (std::uint64_t slot = 0; slot < 200; ++slot) {
        const LinkFrameResult fr = link.drawAt(
            static_cast<phy::RateIndex>(rate), slot, kZeroSinrDb);
        std::uint8_t ok = 9;
        double pber = -1.0;
        kernels::ops().perDrawBatch(flat.view(), &rate, &kZeroSinrDb, &key,
                                    slot, 1, &ok, &pber);
        ASSERT_EQ(fr.ok, ok != 0) << "slot " << slot;
        ASSERT_EQ(fr.pber, pber) << "slot " << slot;
        ++sent;
        ok_scalar += fr.ok ? 1 : 0;
        ok_batch += ok ? 1 : 0;
    }
    EXPECT_EQ(ok_scalar, ok_batch);
    // At the sentinel the table's lowest bin governs: deep in the
    // noise, virtually nothing survives.
    EXPECT_LT(static_cast<double>(ok_scalar),
              0.5 * static_cast<double>(sent));
}

// ------------------------------------- table vs fresh ground truth

TEST(CalibrationTable, MatchesIndependentFullPhyMeasurements)
{
    std::shared_ptr<const softphy::CalibrationTable> table =
        sharedTable();
    const softphy::CalibrationTable::BuildSpec build =
        testBuildSpec();

    // Re-measure a selection of (rate, SNR) cells in each rate's
    // waterfall region with *independent* seeds and frame counts;
    // the table (interpolated at the same SNR) must agree within
    // binomial sampling tolerance.
    struct Probe {
        phy::RateIndex rate;
        double snrDb;
    };
    const Probe probes[] = {
        {0, -1.0}, {2, 2.0}, {4, 7.0}, {6, 15.0},
    };
    const std::uint64_t packets = 96;
    for (const Probe &probe : probes) {
        ScenarioSpec scen;
        scen.rate = probe.rate;
        scen.rx = build.rx;
        scen.channel = build.channel;
        scen.channelCfg.set("snr_db",
                            strprintf("%.17g", probe.snrDb));
        scen.channelCfg.set("seed", "987654321");
        scen.payloadBits = build.payloadBits;
        scen.payloadSeed = 0xFACADE;

        std::uint64_t bad = 0;
        for (const bool ok : sweepPackets(
                 {scen}, packets, 2,
                 [](size_t, std::uint64_t, const FrameResult &res) {
                     return res.ok;
                 }))
            bad += ok ? 0 : 1;
        const double measured =
            static_cast<double>(bad) / static_cast<double>(packets);
        const double predicted = table->per(probe.rate, probe.snrDb);
        // ~4 sigma of the two binomial estimates plus interpolation
        // slack across the 2 dB bins.
        const double sigma = std::sqrt(
            measured * (1.0 - measured) / packets +
            predicted * (1.0 - predicted) /
                static_cast<double>(build.packetsPerCell));
        EXPECT_NEAR(predicted, measured, 4.0 * sigma + 0.12)
            << "rate " << probe.rate << " @ " << probe.snrDb
            << " dB";
    }
}

// ------------------------------- analytic vs full, system level

namespace {

void
expectAnalyticTracksFull(const char *preset)
{
    const std::uint64_t slots = 300;
    NetworkSpec spec = fidelityCell(preset, 12);

    NetworkResult full = NetworkSim(spec).run(slots, 2);

    NetworkSpec ana = spec;
    ana.fidelity.mode = FidelityMode::Analytic;
    NetworkResult fast = NetworkSim(ana, sharedTable()).run(slots, 2);

    ASSERT_EQ(full.users.size(), fast.users.size());
    for (size_t u = 0; u < full.users.size(); ++u) {
        const double per_full =
            1.0 - full.users[u].frameSuccessRate();
        const double per_fast =
            1.0 - fast.users[u].frameSuccessRate();
        // Binomial noise at 300 slots is ~0.03 per estimate; allow
        // ~4 sigma plus calibration bias headroom.
        EXPECT_NEAR(per_fast, per_full, 0.12)
            << preset << " user " << u;
        EXPECT_EQ(fast.users[u].analyticFrames,
                  fast.users[u].framesSent)
            << "analytic mode must never touch the full PHY";
    }
    const double agg_full = 1.0 - full.aggregate.frameSuccessRate();
    const double agg_fast = 1.0 - fast.aggregate.frameSuccessRate();
    EXPECT_NEAR(agg_fast, agg_full, 0.03) << preset;

    const double gp_full = full.aggregateGoodputMbps();
    const double gp_fast = fast.aggregateGoodputMbps();
    ASSERT_GT(gp_full, 0.0);
    EXPECT_NEAR(gp_fast / gp_full, 1.0, 0.10) << preset;
}

} // namespace

TEST(LinkFidelity, AnalyticTracksFullPerOnCell16)
{
    expectAnalyticTracksFull("cell-16");
}

TEST(LinkFidelity, AnalyticTracksFullPerOnCellMobile)
{
    expectAnalyticTracksFull("cell-mobile");
}

// --------------------------------------- auto mode + determinism

namespace {

void
expectSameUser(const UserStats &a, const UserStats &b, int user)
{
    EXPECT_EQ(a.framesSent, b.framesSent) << "user " << user;
    EXPECT_EQ(a.framesOk, b.framesOk) << "user " << user;
    EXPECT_EQ(a.fullPhyFrames, b.fullPhyFrames) << "user " << user;
    EXPECT_EQ(a.analyticFrames, b.analyticFrames) << "user " << user;
    EXPECT_EQ(a.delivered, b.delivered) << "user " << user;
    EXPECT_EQ(a.dropped, b.dropped) << "user " << user;
    EXPECT_EQ(a.goodputBits, b.goodputBits) << "user " << user;
    EXPECT_EQ(a.retransmissions, b.retransmissions)
        << "user " << user;
    EXPECT_EQ(a.latencySlots.mean(), b.latencySlots.mean())
        << "user " << user;
    EXPECT_EQ(a.latencySlots.variance(), b.latencySlots.variance())
        << "user " << user;
    for (int bin = 0; bin < a.rateHist.numBins(); ++bin)
        EXPECT_EQ(a.rateHist.count(bin), b.rateHist.count(bin))
            << "user " << user << " rate bin " << bin;
}

} // namespace

TEST(LinkFidelity, AutoModeBitIdenticalAt1_2_8Threads)
{
    const std::uint64_t slots = 48;
    NetworkSpec spec = fidelityCell("cell-16", 8);
    // Re-enable adaptation: the mixed feedback stream (full pber on
    // refresh slots, calibrated pber in between) must itself be
    // deterministic.
    spec.pberLo = 1e-6;
    spec.pberHi = 1e-4;
    spec.fidelity.mode = FidelityMode::Auto;
    spec.fidelity.warmupSlots = 8;
    spec.fidelity.refreshPeriod = 16;
    spec.fidelity.refreshSlots = 2;

    NetworkSim sim(spec, sharedTable());
    NetworkResult t1 = sim.run(slots, 1);
    NetworkResult t2 = sim.run(slots, 2);
    NetworkResult t8 = sim.run(slots, 8);
    for (size_t u = 0; u < t1.users.size(); ++u) {
        expectSameUser(t1.users[u], t2.users[u],
                       static_cast<int>(u));
        expectSameUser(t1.users[u], t8.users[u],
                       static_cast<int>(u));
    }
    expectSameUser(t1.aggregate, t2.aggregate, -1);
    expectSameUser(t1.aggregate, t8.aggregate, -1);

    // The schedule bookkeeping: full-buffer users transmit every
    // slot, so the full-PHY share is exactly the policy's count --
    // 8 warm-up + ceil(40 / 16) refresh windows x 2 slots.
    for (const UserStats &u : t1.users) {
        EXPECT_EQ(u.framesSent, slots);
        EXPECT_EQ(u.fullPhyFrames, 8u + 3u * 2u);
        EXPECT_EQ(u.analyticFrames, u.framesSent - u.fullPhyFrames);
    }
}

TEST(LinkFidelity, AnalyticModeBitIdenticalAt1_2_8Threads)
{
    const std::uint64_t slots = 64;
    NetworkSpec spec = fidelityCell("cell-16", 8);
    spec.pberLo = 1e-6;
    spec.pberHi = 1e-4;
    spec.fidelity.mode = FidelityMode::Analytic;

    NetworkSim sim(spec, sharedTable());
    NetworkResult t1 = sim.run(slots, 1);
    NetworkResult t2 = sim.run(slots, 2);
    NetworkResult t8 = sim.run(slots, 8);
    for (size_t u = 0; u < t1.users.size(); ++u) {
        expectSameUser(t1.users[u], t2.users[u],
                       static_cast<int>(u));
        expectSameUser(t1.users[u], t8.users[u],
                       static_cast<int>(u));
    }
}

TEST(LinkFidelity, FullModeUnchangedByTheFidelityMachinery)
{
    // A full-fidelity run must not depend on whether a calibration
    // table happens to be attached: same seeds, same physics.
    const std::uint64_t slots = 32;
    NetworkSpec spec = fidelityCell("cell-16", 4);
    NetworkResult bare = NetworkSim(spec).run(slots, 2);
    NetworkResult with_table =
        NetworkSim(spec, sharedTable()).run(slots, 2);
    for (size_t u = 0; u < bare.users.size(); ++u) {
        expectSameUser(bare.users[u], with_table.users[u],
                       static_cast<int>(u));
        EXPECT_EQ(bare.users[u].fullPhyFrames,
                  bare.users[u].framesSent);
        EXPECT_EQ(bare.users[u].analyticFrames, 0u);
    }
}
