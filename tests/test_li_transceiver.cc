/**
 * @file
 * System-level LI pipeline tests: the streaming multi-clock
 * transceiver must be bit-exact against the batch kernel path (the
 * WiLIS "same source, both execution styles" property), sustain the
 * expected streaming throughput, and produce identical results under
 * any clock assignment.
 */

#include <gtest/gtest.h>

#include <tuple>

#include "common/random.hh"
#include "sim/li_transceiver.hh"
#include "sim/testbench.hh"

using namespace wilis;
using namespace wilis::sim;

namespace {

BitVec
randomPayload(size_t n, std::uint64_t seed)
{
    SplitMix64 rng(seed);
    BitVec v(n);
    for (auto &b : v)
        b = rng.nextBit();
    return v;
}

} // namespace

class LiTransceiverMatrix
    : public ::testing::TestWithParam<std::tuple<int, const char *>>
{};

INSTANTIATE_TEST_SUITE_P(
    RatesAndDecoders, LiTransceiverMatrix,
    ::testing::Combine(::testing::Values(0, 2, 4, 5, 7),
                       ::testing::Values("viterbi", "sova", "bcjr")));

TEST_P(LiTransceiverMatrix, BitExactAgainstKernelPath)
{
    auto [rate, decoder] = GetParam();

    phy::OfdmReceiver::Config rxc;
    rxc.decoder = decoder;
    li::Config chan_cfg = li::Config::fromString("snr_db=8,seed=77");

    // Batch kernel path.
    ScenarioSpec spec;
    spec.rate = rate;
    spec.rx = rxc;
    spec.channelCfg = chan_cfg;
    Testbench tb(spec);

    // Streaming LI path.
    LiTransceiver li_tx(rate, rxc, "awgn", chan_cfg);

    for (std::uint64_t p = 0; p < 3; ++p) {
        BitVec payload = randomPayload(700, 1000 + p);
        PacketResult kernel = tb.runPacketWithPayload(payload, p);
        LiPacketResult streamed = li_tx.runPacket(payload, p);

        ASSERT_EQ(streamed.payload.size(), kernel.rx.payload.size());
        EXPECT_EQ(streamed.payload, kernel.rx.payload)
            << "packet " << p;
        for (size_t i = 0; i < streamed.soft.size(); ++i) {
            ASSERT_EQ(streamed.soft[i].bit, kernel.rx.soft[i].bit)
                << "bit " << i;
            ASSERT_EQ(streamed.soft[i].llr, kernel.rx.soft[i].llr)
                << "hint " << i;
        }
    }
}

class LiTransceiverChannels
    : public ::testing::TestWithParam<std::tuple<int, const char *>>
{};

INSTANTIATE_TEST_SUITE_P(
    RatesAndChannels, LiTransceiverChannels,
    ::testing::Combine(::testing::Range(0, phy::kNumRates),
                       ::testing::Values("rayleigh", "multipath")));

TEST_P(LiTransceiverChannels, BitExactOverPerSymbolCsi)
{
    // The LI equalizer and the batch receiver both ask the channel
    // for a symbol's bin gains; on a time-varying (rayleigh) and a
    // frequency-selective (multipath) channel they must agree.
    auto [rate, channel] = GetParam();
    phy::OfdmReceiver::Config rxc;
    rxc.decoder = "bcjr";
    li::Config chan_cfg = li::Config::fromString(
        "snr_db=12,doppler_hz=20,num_taps=4,delay_spread=3,seed=5");

    ScenarioSpec spec;
    spec.rate = rate;
    spec.rx = rxc;
    spec.channel = channel;
    spec.channelCfg = chan_cfg;
    Testbench tb(spec);

    LiTransceiver li_tx(rate, rxc, channel, chan_cfg);

    for (std::uint64_t p : {0u, 4u}) {
        BitVec payload = randomPayload(1000, 9 + p);
        PacketResult kernel = tb.runPacketWithPayload(payload, p);
        LiPacketResult streamed = li_tx.runPacket(payload, p);
        EXPECT_EQ(streamed.payload, kernel.rx.payload) << "packet " << p;
        ASSERT_EQ(streamed.soft.size(), kernel.rx.soft.size());
        for (size_t i = 0; i < streamed.soft.size(); ++i)
            ASSERT_EQ(streamed.soft[i].llr, kernel.rx.soft[i].llr)
                << "packet " << p << " hint " << i;
    }
}

TEST(LiTransceiver, CrossDomainSynchronizersInserted)
{
    phy::OfdmReceiver::Config rxc;
    LiTransceiver t(2, rxc, "awgn",
                    li::Config::fromString("snr_db=10,seed=1"));
    // baseband->host, host->baseband, baseband->decoder.
    EXPECT_EQ(t.syncFifoCount(), 3);
}

TEST(LiTransceiver, ResultsInvariantUnderClockAssignment)
{
    // The system-level latency-insensitivity property: change every
    // clock frequency and the decoded packet is bit-identical.
    phy::OfdmReceiver::Config rxc;
    rxc.decoder = "sova";
    li::Config chan_cfg = li::Config::fromString("snr_db=6,seed=3");
    BitVec payload = randomPayload(600, 21);

    LiTransceiverClocks paper; // 35 / 60 / 100
    LiTransceiverClocks swapped;
    swapped.basebandMhz = 60.0;
    swapped.decoderMhz = 35.0;
    swapped.hostMhz = 13.0;
    LiTransceiverClocks odd;
    odd.basebandMhz = 17.3;
    odd.decoderMhz = 91.0;
    odd.hostMhz = 44.4;

    LiTransceiver a(2, rxc, "awgn", chan_cfg, paper);
    LiTransceiver b(2, rxc, "awgn", chan_cfg, swapped);
    LiTransceiver c(2, rxc, "awgn", chan_cfg, odd);

    LiPacketResult ra = a.runPacket(payload, 0);
    LiPacketResult rb = b.runPacket(payload, 0);
    LiPacketResult rc = c.runPacket(payload, 0);
    EXPECT_EQ(ra.payload, rb.payload);
    EXPECT_EQ(ra.payload, rc.payload);
    for (size_t i = 0; i < ra.soft.size(); ++i) {
        ASSERT_EQ(ra.soft[i].llr, rb.soft[i].llr);
        ASSERT_EQ(ra.soft[i].llr, rc.soft[i].llr);
    }
}

TEST(LiTransceiver, StreamingThroughputIsSampleBound)
{
    // The TX front-end streams one sample per baseband cycle (the CP
    // inserter is the 80-cycles-per-symbol stage), so a packet of N
    // samples should take ~N baseband cycles plus pipeline fill, not
    // many multiples of it.
    phy::OfdmReceiver::Config rxc;
    rxc.decoder = "viterbi";
    LiTransceiver t(4, rxc, "awgn",
                    li::Config::fromString("snr_db=20,seed=2"));
    BitVec payload = randomPayload(1704, 3);
    LiPacketResult res = t.runPacket(payload, 0);

    EXPECT_GT(res.basebandCycles,
              res.samples); // can't beat 1 sample/cycle
    EXPECT_LT(res.basebandCycles, 4 * res.samples + 4000)
        << "pipeline lost too much throughput to stalls";
}

TEST(LiTransceiver, DecoderDomainRunsFasterThanBaseband)
{
    // 60 MHz vs 35 MHz: over the same wall-clock run the decoder
    // domain must have ticked ~60/35 times as often.
    phy::OfdmReceiver::Config rxc;
    LiTransceiver t(2, rxc, "awgn",
                    li::Config::fromString("snr_db=10,seed=4"));
    BitVec payload = randomPayload(800, 5);
    LiPacketResult res = t.runPacket(payload, 0);
    double ratio = static_cast<double>(res.decoderCycles) /
                   static_cast<double>(res.basebandCycles);
    EXPECT_NEAR(ratio, 60.0 / 35.0, 0.05);
}

TEST(LiTransceiver, ReusableAcrossPackets)
{
    phy::OfdmReceiver::Config rxc;
    rxc.decoder = "bcjr";
    li::Config chan_cfg = li::Config::fromString("snr_db=30,seed=6");
    LiTransceiver t(4, rxc, "awgn", chan_cfg);
    for (std::uint64_t p = 0; p < 4; ++p) {
        BitVec payload = randomPayload(500 + 100 * p, p);
        LiPacketResult res = t.runPacket(payload, p);
        EXPECT_EQ(res.payload, payload) << "packet " << p;
    }
}
