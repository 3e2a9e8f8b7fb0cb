/**
 * @file
 * Fast network-fidelity smoke: the committed calibration table
 * (data/network_calibration.txt) loads, matches the geometry the
 * cell presets derive (so preset changes force a regeneration), and
 * drives a small analytic cell to sane system-level numbers; a
 * couple of its waterfall cells are cross-checked against freshly
 * measured full-PHY frames. This is the cheap every-push guard in
 * front of the slow test_link_fidelity validation suite.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "sim/network_sim.hh"
#include "sim/sweep.hh"

using namespace wilis;
using namespace wilis::sim;

namespace {

std::string
committedTablePath()
{
    return std::string(WILIS_SOURCE_DIR) +
           "/data/network_calibration.txt";
}

std::shared_ptr<const softphy::CalibrationTable>
committedTable()
{
    static std::shared_ptr<const softphy::CalibrationTable> table =
        std::make_shared<const softphy::CalibrationTable>(
            softphy::CalibrationTable::load(committedTablePath()));
    return table;
}

} // namespace

TEST(NetworkFidelitySmoke, CommittedTableMatchesPresetGeometry)
{
    std::shared_ptr<const softphy::CalibrationTable> t =
        committedTable();
    const softphy::CalibrationTable::BuildSpec want =
        NetworkSim::calibrationBuildSpec(networkPreset("cell-16"));

    // If this fails, a preset or receiver default moved: regenerate
    // with ./build/wilis_cli --network cell-16 --calibrate
    // data/network_calibration.txt
    EXPECT_EQ(t->channelKind(), want.channel);
    EXPECT_EQ(t->decoder(), want.rx.decoder);
    EXPECT_EQ(t->softWidth(), want.rx.demapper.softWidth);
    EXPECT_EQ(t->payloadBits(), want.payloadBits);
    EXPECT_EQ(t->numBins(), want.numBins);
    EXPECT_DOUBLE_EQ(t->snrLoDb(), want.snrLoDb);
    EXPECT_DOUBLE_EQ(t->snrStepDb(), want.snrStepDb);

    // Physics sanity: PER decreases with SNR and increases with
    // rate across the calibrated range.
    for (int r = 0; r < phy::kNumRates; ++r) {
        EXPECT_GE(t->per(r, t->snrLoDb()), 0.9) << "rate " << r;
        EXPECT_LE(t->per(r, t->binCenterDb(t->numBins() - 1)), 0.1)
            << "rate " << r;
    }
    EXPECT_GT(t->per(7, 14.0), t->per(2, 14.0));
}

TEST(NetworkFidelitySmoke, CommittedCellsMatchFreshMeasurements)
{
    std::shared_ptr<const softphy::CalibrationTable> t =
        committedTable();

    // Re-measure two waterfall-region cells with independent seeds;
    // the committed table must agree within binomial tolerance.
    struct Probe {
        phy::RateIndex rate;
        int bin;
    };
    for (const Probe &probe :
         {Probe{2, t->binOf(3.0)}, Probe{4, t->binOf(7.0)}}) {
        const std::uint64_t packets = 32;
        ScenarioSpec scen;
        scen.rate = probe.rate;
        scen.channel = t->channelKind();
        scen.channelCfg.set(
            "snr_db",
            strprintf("%.17g", t->binCenterDb(probe.bin)));
        scen.channelCfg.set("seed", "13579");
        scen.payloadBits = t->payloadBits();
        scen.payloadSeed = 0x5EEDF00D;

        std::uint64_t bad = 0;
        for (const bool ok : sweepPackets(
                 {scen}, packets, 2,
                 [](size_t, std::uint64_t, const FrameResult &res) {
                     return res.ok;
                 }))
            bad += ok ? 0 : 1;
        const double measured =
            static_cast<double>(bad) / static_cast<double>(packets);
        const double committed = t->cell(probe.rate, probe.bin).per();
        const double sigma = std::sqrt(
            measured * (1.0 - measured) / packets +
            committed * (1.0 - committed) /
                static_cast<double>(t->packetsPerCell()));
        EXPECT_NEAR(committed, measured, 4.0 * sigma + 0.15)
            << "rate " << probe.rate << " bin " << probe.bin;
    }
}

TEST(NetworkFidelitySmoke, SmallAnalyticRunFromTheCommittedTable)
{
    NetworkSpec spec = networkPreset("cell-16");
    spec.fidelity.mode = FidelityMode::Analytic;
    spec.calibrationFile = committedTablePath();
    spec.snrSpreadDb = 6.0;
    const std::uint64_t slots = 64;

    NetworkSim sim(spec);
    ASSERT_NE(sim.calibration(), nullptr);
    NetworkResult res = sim.run(slots, 2);

    EXPECT_EQ(res.aggregate.framesSent +
                  res.aggregate.stalledSlots,
              slots * static_cast<std::uint64_t>(spec.numUsers));
    EXPECT_EQ(res.aggregate.analyticFrames,
              res.aggregate.framesSent)
        << "analytic mode must never run the full PHY";
    EXPECT_EQ(res.aggregate.fullPhyFrames, 0u);
    EXPECT_GT(res.aggregate.delivered, 0u);
    EXPECT_GT(res.aggregateGoodputMbps(), 0.0);
    // A 14 +- 6 dB cell at QPSK-1/2 start with adaptation: mostly
    // clean frames, but not error-free.
    EXPECT_GT(res.aggregate.frameSuccessRate(), 0.6);
    EXPECT_LT(res.aggregate.frameSuccessRate(), 1.0);

    // Determinism of the analytic draws across thread counts.
    NetworkResult re = sim.run(slots, 1);
    EXPECT_EQ(re.aggregate.framesOk, res.aggregate.framesOk);
    EXPECT_EQ(re.aggregate.goodputBits, res.aggregate.goodputBits);
}
