/**
 * @file
 * Area model and platform tests: the Figure 8 reproduction bands,
 * the model's parameter sensitivities, link/batching arithmetic, and
 * the analytic Figure 2 co-simulation model.
 */

#include <gtest/gtest.h>

#include "platform/cosim.hh"
#include "platform/link.hh"
#include "synth/area.hh"

using namespace wilis;
using namespace wilis::synth;
using namespace wilis::platform;

namespace {

/** |got - expect| within frac of expect. */
::testing::AssertionResult
within(long got, long expect, double frac)
{
    double err = std::abs(static_cast<double>(got - expect)) /
                 static_cast<double>(expect);
    if (err <= frac)
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << got << " not within " << frac * 100 << "% of " << expect;
}

AreaEstimate
rowNamed(const std::vector<AreaRow> &rows, const std::string &name)
{
    for (const auto &r : rows) {
        if (r.name == name)
            return r.area;
    }
    ADD_FAILURE() << "no row named " << name;
    return {};
}

} // namespace

TEST(AreaModel, Figure8TotalsWithinTenPercent)
{
    DecoderAreaParams p; // defaults = paper configuration
    auto vit = viterbiAreaReport(p)[0].area;
    auto sova = sovaAreaReport(p)[0].area;
    auto bcjr = bcjrAreaReport(p)[0].area;

    EXPECT_TRUE(within(vit.luts, 7569, 0.10));
    EXPECT_TRUE(within(vit.registers, 4538, 0.10));
    EXPECT_TRUE(within(sova.luts, 15114, 0.10));
    EXPECT_TRUE(within(sova.registers, 15168, 0.10));
    EXPECT_TRUE(within(bcjr.luts, 32936, 0.10));
    EXPECT_TRUE(within(bcjr.registers, 38420, 0.10));
}

TEST(AreaModel, Figure8SubBlocksWithinFifteenPercent)
{
    DecoderAreaParams p;
    auto vit = viterbiAreaReport(p);
    auto sova = sovaAreaReport(p);
    auto bcjr = bcjrAreaReport(p);

    EXPECT_TRUE(within(rowNamed(vit, "Traceback Unit").luts, 5144,
                       0.15));
    EXPECT_TRUE(within(rowNamed(vit, "Traceback Unit").registers,
                       3927, 0.15));
    EXPECT_TRUE(within(rowNamed(sova, "Soft TU").luts, 13456, 0.15));
    EXPECT_TRUE(within(rowNamed(sova, "Soft TU").registers, 13402,
                       0.15));
    EXPECT_TRUE(within(rowNamed(sova, "Soft Path Detect").luts, 7362,
                       0.15));
    EXPECT_TRUE(
        within(rowNamed(bcjr, "Soft Decision Unit").luts, 6561, 0.15));
    EXPECT_TRUE(within(rowNamed(bcjr, "Final Rev. Buf.").registers,
                       30048, 0.15));
    EXPECT_TRUE(within(rowNamed(bcjr, "Initial Rev. Buf.").registers,
                       2608, 0.15));
    EXPECT_TRUE(within(rowNamed(bcjr, "Branch Metric Unit").luts, 63,
                       0.10));
    EXPECT_TRUE(within(rowNamed(bcjr, "Path Metric Unit").luts, 4672,
                       0.10));
}

TEST(AreaModel, PaperRatiosHold)
{
    // Section 4.4.3: "BCJR is about twice the size of SOVA...
    // SOVA itself is about twice the size of Viterbi."
    DecoderAreaParams p;
    double vit = static_cast<double>(viterbiAreaReport(p)[0].area.luts);
    double sova = static_cast<double>(sovaAreaReport(p)[0].area.luts);
    double bcjr = static_cast<double>(bcjrAreaReport(p)[0].area.luts);
    EXPECT_NEAR(bcjr / sova, 2.0, 0.45);
    EXPECT_NEAR(sova / vit, 2.0, 0.45);
}

TEST(AreaModel, ShrinkingWindowShrinksArea)
{
    // "The area of both SOVA and BCJR can be reduced by shrinking
    // the length of the backward analysis."
    DecoderAreaParams big;
    DecoderAreaParams small = big;
    small.window = 32;
    EXPECT_LT(sovaAreaReport(small)[0].area.luts,
              sovaAreaReport(big)[0].area.luts);
    EXPECT_LT(bcjrAreaReport(small)[0].area.registers,
              bcjrAreaReport(big)[0].area.registers);
    // BCJR registers scale ~linearly with n (reversal buffers).
    double ratio =
        static_cast<double>(bcjrAreaReport(small)[0].area.registers) /
        static_cast<double>(bcjrAreaReport(big)[0].area.registers);
    EXPECT_NEAR(ratio, 0.5, 0.12);
}

TEST(AreaModel, ReversalBuffersDominateBcjrRegisters)
{
    DecoderAreaParams p;
    auto rows = bcjrAreaReport(p);
    long total = rows[0].area.registers;
    long bufs = rowNamed(rows, "Initial Rev. Buf.").registers +
                rowNamed(rows, "Final Rev. Buf.").registers;
    EXPECT_GT(bufs, total / 2);
}

TEST(AreaModel, SoftPhyOverheadAroundTenPercent)
{
    // Conclusion: "around 10% increase in the size of a transceiver".
    DecoderAreaParams p;
    double sova_pct = softPhyOverheadPct("sova", p);
    EXPECT_GT(sova_pct, 5.0);
    EXPECT_LT(sova_pct, 20.0);
}

TEST(AreaModel, DecoderTotalDispatch)
{
    DecoderAreaParams p;
    EXPECT_EQ(decoderTotal("viterbi", p).luts,
              viterbiAreaReport(p)[0].area.luts);
    EXPECT_EQ(decoderTotal("bcjr-logmap", p).luts,
              bcjrAreaReport(p)[0].area.luts);
}

TEST(Link, TransferTimeAndEffectiveBandwidth)
{
    LinkModel::Params prm;
    prm.bandwidthMBps = 700.0;
    prm.perTransferOverheadUs = 20.0;
    LinkModel link(prm);
    // 700 MB/s == 700 bytes/us.
    EXPECT_NEAR(link.transferUs(7000), 20.0 + 10.0, 1e-9);
    // Tiny batches are overhead-dominated.
    EXPECT_LT(link.effectiveBandwidthMBps(64), 5.0);
    // Large batches approach line bandwidth.
    EXPECT_GT(link.effectiveBandwidthMBps(4 << 20), 600.0);
}

TEST(Link, StatsAccumulate)
{
    LinkModel link;
    link.record(1000);
    link.record(3000);
    EXPECT_EQ(link.totalBytes(), 4000u);
    EXPECT_EQ(link.totalTransfers(), 2u);
    EXPECT_GT(link.busyUs(), 0.0);
}

TEST(CosimModel, PaperConfigurationFractionsAndLinkUse)
{
    // With the paper's parameters the software channel is the
    // bottleneck at ~1/3 of line rate and uses ~55 MB/s of link.
    CosimModel m; // defaults: 35 MHz FPGA, 6.9 Msps channel
    double frac = m.lineRateFraction();
    EXPECT_GT(frac, 0.30);
    EXPECT_LT(frac, 0.42);
    EXPECT_NEAR(m.linkUtilizationMBps(), 55.0, 6.0);

    // Figure 2 check at the extremes of the rate table.
    EXPECT_NEAR(m.simSpeedMbps(phy::rateTable(0)), 2.03, 0.5);
    EXPECT_NEAR(m.simSpeedMbps(phy::rateTable(7)), 20.0, 4.0);
}

TEST(CosimModel, FasterChannelShiftsBottleneck)
{
    CosimModel m;
    m.swChannelMsps = 100.0; // channel no longer limits
    // Now the 35 MHz FPGA pipeline caps at 1.75x line rate.
    EXPECT_NEAR(m.lineRateFraction(), 1.75, 1e-9);
}

TEST(CosimDriver, DecoupledBeatsLockstepByAboutTenX)
{
    // Section 2: LI batching "increase[s] our throughput by
    // approximately one order of magnitude".
    sim::ScenarioSpec spec;
    spec.rate = 4;
    spec.rx.decoder = "viterbi";
    spec.channelCfg = li::Config::fromString("snr_db=30,seed=3");

    CosimDriver::Params li_params;
    li_params.batchSamples = 4096;
    li_params.decoupled = true;

    CosimDriver::Params lockstep = li_params;
    lockstep.batchSamples = 80; // one OFDM symbol per exchange
    lockstep.decoupled = false;

    CosimDriver fast(spec, li_params);
    CosimDriver slow(spec, lockstep);
    auto a = fast.run(1704, 6);
    auto b = slow.run(1704, 6);
    ASSERT_GT(a.simSpeedMbps(), 0.0);
    ASSERT_GT(b.simSpeedMbps(), 0.0);
    double speedup = a.simSpeedMbps() / b.simSpeedMbps();
    EXPECT_GT(speedup, 5.0);
    EXPECT_LT(speedup, 40.0);
}

TEST(CosimDriver, SampleAccounting)
{
    sim::ScenarioSpec spec;
    spec.rate = 0; // BPSK 1/2
    spec.rx.decoder = "viterbi";
    spec.channelCfg = li::Config::fromString("snr_db=30,seed=3");
    CosimDriver::Params p;
    CosimDriver driver(spec, p);
    auto stats = driver.run(100, 2);
    // 100 bits + 6 tail at 24 bits/symbol -> 5 symbols -> 400
    // samples per packet.
    EXPECT_EQ(stats.samples, 800u);
    EXPECT_EQ(stats.payloadBits, 200u);
    EXPECT_GT(stats.wallUs, 0.0);
}
