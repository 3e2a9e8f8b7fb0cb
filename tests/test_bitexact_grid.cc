/**
 * @file
 * Batch <-> LI bit-exactness over a scenario grid: one ScenarioSpec
 * is the single source of truth for both execution styles, and for
 * every cell of a rates x channels grid the streaming multi-clock
 * pipeline must reproduce the batch kernel path bit for bit --
 * payloads, decoded bits and SoftPHY LLR hints alike. This is the
 * WiLIS "same blocks, both worlds" property lifted to whole
 * scenarios, which is what makes fast software sweeps trustworthy
 * stand-ins for the cycle-accurate execution.
 */

#include <gtest/gtest.h>

#include <tuple>

#include "sim/li_transceiver.hh"
#include "sim/scenario_grid.hh"
#include "sim/testbench.hh"

using namespace wilis;
using namespace wilis::sim;

class BitExactGrid
    : public ::testing::TestWithParam<std::tuple<int, const char *>>
{};

// 3 rates x 2 channels = 6 cells; every cell checks 2 packets.
INSTANTIATE_TEST_SUITE_P(
    RatesAndChannels, BitExactGrid,
    ::testing::Combine(::testing::Values(0, 3, 5),
                       ::testing::Values("awgn", "rayleigh")));

TEST_P(BitExactGrid, ScenarioSpecDrivesBothPathsBitExactly)
{
    auto [rate, channel] = GetParam();

    ScenarioSpec spec;
    spec.rate = rate;
    spec.channel = channel;
    // Rayleigh at its default 20 Hz Doppler.
    spec.channelCfg = li::Config::fromString("snr_db=9,seed=31");
    spec.rx.decoder = "bcjr";
    spec.payloadBits = 260;

    Testbench tb(spec);
    LiTransceiver li_tx(spec);

    for (std::uint64_t p = 0; p < 2; ++p) {
        // The batch side generates the payload deterministically;
        // replay the identical bits through the LI pipeline.
        FrameResult kernel = tb.runFrame(spec.payloadBits, p);
        BitVec payload(kernel.txPayload.begin(),
                       kernel.txPayload.end());
        BitVec kernel_bits(kernel.rx.payload.begin(),
                           kernel.rx.payload.end());
        std::vector<SoftDecision> kernel_soft(kernel.rx.soft.begin(),
                                              kernel.rx.soft.end());

        LiPacketResult streamed = li_tx.runPacket(payload, p);

        ASSERT_EQ(streamed.payload.size(), kernel_bits.size());
        EXPECT_EQ(streamed.payload, kernel_bits) << "packet " << p;
        ASSERT_EQ(streamed.soft.size(), kernel_soft.size());
        for (size_t i = 0; i < streamed.soft.size(); ++i) {
            ASSERT_EQ(streamed.soft[i].bit, kernel_soft[i].bit)
                << "bit " << i;
            ASSERT_EQ(streamed.soft[i].llr, kernel_soft[i].llr)
                << "hint " << i;
        }
    }
}

TEST(BitExactGridSweep, GridCellsAgreeAcrossExecutionStyles)
{
    // Drive both styles from ScenarioGrid::cell() directly: the grid
    // machinery (per-cell seed derivation included) must hand the LI
    // path exactly the scenario the batch sweep ran.
    ScenarioGrid grid;
    grid.base = scenarioPreset("awgn-mid");
    grid.base.payloadBits = 200;
    grid.rates = {2, 4};
    grid.channels = {"awgn", "rayleigh"};
    grid.seed = 0x5CE4A;
    ASSERT_EQ(grid.cellCount(), 4u);

    for (size_t c = 0; c < grid.cellCount(); ++c) {
        ScenarioSpec spec = grid.cell(c);
        Testbench tb(spec);
        LiTransceiver li_tx(spec);

        FrameResult kernel = tb.runFrame(spec.payloadBits, 0);
        BitVec payload(kernel.txPayload.begin(),
                       kernel.txPayload.end());
        BitVec kernel_bits(kernel.rx.payload.begin(),
                           kernel.rx.payload.end());

        LiPacketResult streamed = li_tx.runPacket(payload, 0);
        EXPECT_EQ(streamed.payload, kernel_bits)
            << "cell " << c << " (" << spec.label() << ")";
    }
}
