/**
 * @file
 * Area model and platform tests: the Figure 8 reproduction bands,
 * the model's parameter sensitivities, and the closed-form Figure 2
 * co-simulation model with its link and batching accounting.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "platform/cosim.hh"
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

TEST(CosimModel, TransferCostIsOverheadPlusBytes)
{
    // One 400-sample packet in one batch: a 3200-byte transfer each
    // way, 20 us of overhead plus 3200 bytes at 700 bytes/us.
    CosimModel m;
    m.batchSamples = 400;
    auto s = m.run(phy::rateTable(0), 100, 1);
    EXPECT_EQ(s.transfers, 2u);
    EXPECT_NEAR(s.linkUs, 2.0 * (20.0 + 3200.0 / 700.0), 1e-9);

    // 8-sample (64-byte) batches are overhead-dominated: the link
    // then caps the platform below 5 MB/s.
    m.batchSamples = 8;
    m.swChannelMsps = 100.0;
    EXPECT_LT(m.linkUtilizationMBps(), 5.0);
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

TEST(CosimModel, DecoupledBeatsLockstepByAboutTenX)
{
    // Section 2: LI batching "increase[s] our throughput by
    // approximately one order of magnitude".
    CosimModel li_model;
    li_model.batchSamples = 4096;
    li_model.decoupled = true;

    CosimModel lockstep = li_model;
    lockstep.batchSamples = 80; // one OFDM symbol per exchange
    lockstep.decoupled = false;

    auto a = li_model.run(phy::rateTable(4), 1704, 6);
    auto b = lockstep.run(phy::rateTable(4), 1704, 6);
    ASSERT_GT(a.simSpeedMbps(), 0.0);
    ASSERT_GT(b.simSpeedMbps(), 0.0);
    double speedup = a.simSpeedMbps() / b.simSpeedMbps();
    EXPECT_GT(speedup, 5.0);
    EXPECT_LT(speedup, 40.0);
}

TEST(CosimModel, SampleAccounting)
{
    CosimModel m;
    auto stats = m.run(phy::rateTable(0), 100, 2); // BPSK 1/2
    // 100 bits + 6 tail at 24 bits/symbol -> 5 symbols -> 400
    // samples per packet.
    EXPECT_EQ(stats.samples, 800u);
    EXPECT_EQ(stats.payloadBits, 200u);
    EXPECT_GT(stats.wallUs, 0.0);
}

TEST(CosimModel, RunAccountingPinned)
{
    // QAM-16 1/2, 8 packets of 1704 bits (1440 samples each), the
    // abl_li_batching sweep. The reals were summed batch by batch;
    // the closed form sums in another order, so they agree to 1e-12
    // relative, and the counts exactly.
    struct Row {
        std::uint64_t batch;
        bool decoupled;
        std::uint64_t samples, transfers;
        double hwUs, swUs, linkUs, wallUs;
    };
    const Row rows[] = {
        {16, true, 11520, 1440, 658.28571428571422, 1669.5652173913254,
         29063.314285714579, 29063.314285714579},
        {16, false, 11520, 1440, 658.28571428571422, 1669.5652173913254,
         29063.314285714579, 31391.16521739155},
        {80, true, 11520, 288, 658.28571428571422, 1669.565217391307,
         6023.3142857142857, 6023.3142857142857},
        {80, false, 11520, 288, 658.28571428571422, 1669.565217391307,
         6023.3142857142857, 8351.1652173912935},
        {512, true, 11520, 48, 658.28571428571422, 1669.5652173913049,
         1223.3142857142859, 1669.5652173913049},
        {512, false, 11520, 48, 658.28571428571422, 1669.5652173913049,
         1223.3142857142859, 3551.165217391303},
        {4096, true, 11520, 16, 658.28571428571422, 1669.5652173913043,
         583.31428571428569, 1669.5652173913043},
        {4096, false, 11520, 16, 658.28571428571422, 1669.5652173913043,
         583.31428571428569, 2911.1652173913044},
        {32768, true, 11520, 16, 658.28571428571422, 1669.5652173913043,
         583.31428571428569, 1669.5652173913043},
        {32768, false, 11520, 16, 658.28571428571422,
         1669.5652173913043, 583.31428571428569, 2911.1652173913044},
    };
    const auto near = [](double got, double want) {
        return std::abs(got - want) <= 1e-12 * want;
    };
    for (const Row &r : rows) {
        SCOPED_TRACE(::testing::Message()
                     << "batch " << r.batch
                     << (r.decoupled ? " LI" : " lock-step"));
        CosimModel m;
        m.batchSamples = r.batch;
        m.decoupled = r.decoupled;
        const CosimRunStats s = m.run(phy::rateTable(4), 1704, 8);
        EXPECT_EQ(s.payloadBits, 8u * 1704u);
        EXPECT_EQ(s.samples, r.samples);
        EXPECT_EQ(s.transfers, r.transfers);
        EXPECT_TRUE(near(s.hwUs, r.hwUs)) << s.hwUs;
        EXPECT_TRUE(near(s.swUs, r.swUs)) << s.swUs;
        EXPECT_TRUE(near(s.linkUs, r.linkUs)) << s.linkUs;
        EXPECT_TRUE(near(s.wallUs, r.wallUs)) << s.wallUs;
    }
}
