/**
 * @file
 * System-level LI pipeline tests: the streaming multi-clock
 * transceiver must be bit-exact against the batch kernel path (the
 * WiLIS "same source, both execution styles" property) from the
 * transmitted samples to the SoftPHY hints, keep its pinned cycle
 * counts, charge each decoder's own pipeline latency exactly,
 * sustain the expected streaming throughput, and produce identical
 * results under any clock assignment.
 */

#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "channel/channel.hh"
#include "common/frame_arena.hh"
#include "common/random.hh"
#include "decode/soft_decoder.hh"
#include "phy/ofdm_tx.hh"
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

/** An owning copy of a frame's payload view. */
BitVec
owned(BitView v)
{
    return BitVec(v.begin(), v.end());
}

/** A scenario on @p channel configured by @p channel_cfg. */
ScenarioSpec
liSpec(int rate, const char *decoder, const char *channel_cfg,
       const char *channel = "awgn")
{
    ScenarioSpec spec;
    spec.rate = rate;
    spec.rx.decoder = decoder;
    spec.channel = channel;
    spec.channelCfg = li::Config::fromString(channel_cfg);
    return spec;
}

/** Every sample the capture channel has seen, by sample index. */
SampleVec captured_tx;

/**
 * A pass-through channel that records what the transmitter sent, so
 * a test can compare the LI pipeline's samples with the batch
 * transmitter's.
 */
class CaptureChannel : public channel::Channel
{
  public:
    /** Reads no config key. */
    struct Params {
        template <typename V>
        void visitKeys(V &) {}
    };

    explicit CaptureChannel(const Params &) {}

    std::string name() const override { return "li_tx_capture"; }

    void apply(SampleSpan, std::uint64_t) override {}

    Sample
    impairSample(Sample s, std::uint64_t,
                 std::uint64_t sample_index) const override
    {
        if (captured_tx.size() <= sample_index)
            captured_tx.resize(sample_index + 1);
        captured_tx[sample_index] = s;
        return s;
    }

    double noiseVariance() const override { return 1e-3; }
};

const bool capture_registered = [] {
    channel::ChannelRegistry::global().add<CaptureChannel>("li_tx_capture");
    return true;
}();

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
    ScenarioSpec spec = liSpec(rate, decoder, "snr_db=8,seed=77");
    Testbench tb(spec);        // batch kernel path
    LiTransceiver li_tx(spec); // streaming LI path

    for (std::uint64_t p = 0; p < 3; ++p) {
        BitVec payload = randomPayload(700, 1000 + p);
        const FrameResult kernel = tb.runFrameWithPayload(payload, p);
        LiPacketResult streamed = li_tx.runPacket(payload, p);

        ASSERT_EQ(streamed.payload.size(), kernel.rx.payload.size());
        EXPECT_EQ(streamed.payload, owned(kernel.rx.payload))
            << "packet " << p;
        for (size_t i = 0; i < streamed.soft.size(); ++i) {
            ASSERT_EQ(streamed.soft[i].bit, kernel.rx.soft[i].bit)
                << "bit " << i;
            ASSERT_EQ(streamed.soft[i].llr, kernel.rx.soft[i].llr)
                << "hint " << i;
        }
    }
}

TEST(LiTransceiver, TransmitSamplesMatchBatchModulator)
{
    // The streaming transmitter must put the batch modulator's
    // samples on the air bit for bit, pilots included: the equalizer
    // reads only the data bins, so a wrong pilot would never show in
    // the payload or the hints.
    BitVec payload = randomPayload(1704, 41);
    for (int rate = 0; rate < phy::kNumRates; ++rate) {
        ScenarioSpec spec = liSpec(rate, "bcjr", "", "li_tx_capture");
        LiTransceiver li_tx(spec);
        captured_tx.clear();
        LiPacketResult res = li_tx.runPacket(payload, 0);
        EXPECT_EQ(res.payload, payload) << "rate " << rate;

        phy::OfdmTransmitter tx(rate, spec.rx.scramblerSeed);
        FrameArena arena;
        FrameContext ctx(arena);
        SampleSpan want = tx.modulate(BitView(payload), ctx);
        ASSERT_EQ(captured_tx.size(), want.size()) << "rate " << rate;
        size_t first_diff = want.size();
        for (size_t i = 0; i < want.size() && first_diff == want.size();
             ++i) {
            if (captured_tx[i] != want[i])
                first_diff = i;
        }
        EXPECT_EQ(first_diff, want.size())
            << "rate " << rate << ": first differing sample";
    }
}

TEST(LiTransceiver, CycleCountsPinned)
{
    // Exact cycle counts of a 1704-bit packet at the paper's clocks
    // (35 / 60 / 100 MHz). fig2_simspeed's "FPGA pipeline" table is
    // computed from these, so a change to any stage's timing must
    // show up here.
    struct Golden {
        int rate;
        const char *decoder;
        std::uint64_t baseband, decoder_cycles, samples;
    };
    static const Golden golden[] = {
        {0, "viterbi", 6710, 11504, 5760}, {1, "viterbi", 4773, 8182, 3840},
        {2, "viterbi", 3807, 6527, 2880},  {3, "viterbi", 2843, 4875, 1920},
        {4, "viterbi", 2377, 4076, 1440},  {5, "viterbi", 1905, 3267, 960},
        {6, "viterbi", 1686, 2891, 720},   {7, "viterbi", 1612, 2764, 640},
        {0, "sova", 6750, 11572, 5760},    {1, "sova", 4812, 8250, 3840},
        {2, "sova", 3847, 6595, 2880},     {3, "sova", 2883, 4943, 1920},
        {4, "sova", 2417, 4144, 1440},     {5, "sova", 1945, 3335, 960},
        {6, "sova", 1726, 2959, 720},      {7, "sova", 1652, 2832, 640},
        {0, "bcjr", 6747, 11567, 5760},    {1, "bcjr", 4809, 8245, 3840},
        {2, "bcjr", 3844, 6590, 2880},     {3, "bcjr", 2880, 4938, 1920},
        {4, "bcjr", 2414, 4139, 1440},     {5, "bcjr", 1942, 3330, 960},
        {6, "bcjr", 1723, 2954, 720},      {7, "bcjr", 1649, 2827, 640},
    };
    for (const Golden &g : golden) {
        LiTransceiver t(liSpec(g.rate, g.decoder, "snr_db=30,seed=1"));
        LiPacketResult res = t.runPacket(
            randomPayload(1704, static_cast<std::uint64_t>(g.rate)), 0);
        EXPECT_EQ(res.basebandCycles, g.baseband)
            << "rate " << g.rate << " " << g.decoder;
        EXPECT_EQ(res.decoderCycles, g.decoder_cycles)
            << "rate " << g.rate << " " << g.decoder;
        EXPECT_EQ(res.samples, g.samples)
            << "rate " << g.rate << " " << g.decoder;
    }
}

TEST(LiTransceiver, DecoderLatencyIsChargedExactly)
{
    // The decoder stage charges its decoder's own pipeline latency
    // (section 4.3: SOVA l + k + 12, BCJR 2n + 7) on top of the
    // packet's streaming time, cycle for cycle: what is left of the
    // decoder-domain cycles is the same for every window and both
    // decoders (the rate-2 row of CycleCountsPinned, less 140 or 135).
    struct Window {
        const char *decoder;
        std::string cfg;
    };
    std::vector<Window> windows;
    for (int w : {16, 32, 64, 128}) {
        const std::string l = std::to_string(w);
        windows.push_back({"sova", "traceback_l=" + l + ",traceback_k=" + l});
    }
    for (int n : {16, 32, 64, 128, 256})
        windows.push_back({"bcjr", "block_len=" + std::to_string(n)});

    const BitVec payload = randomPayload(1704, 2);
    for (const Window &w : windows) {
        ScenarioSpec spec = liSpec(2, w.decoder, "snr_db=30,seed=1");
        spec.rx.decoderCfg = li::Config::fromString(w.cfg);
        const int latency =
            decode::makeDecoder(w.decoder, spec.rx.decoderCfg)
                ->pipelineLatencyCycles();
        LiPacketResult res = LiTransceiver(spec).runPacket(payload, 0);
        EXPECT_EQ(res.payload, payload) << w.cfg;
        EXPECT_EQ(res.decoderCycles - static_cast<std::uint64_t>(latency),
                  6455u)
            << w.decoder << " " << w.cfg;
    }
}

class LiTransceiverChannels
    : public ::testing::TestWithParam<std::tuple<int, const char *, bool>>
{};

INSTANTIATE_TEST_SUITE_P(
    RatesAndChannels, LiTransceiverChannels,
    ::testing::Combine(::testing::Range(0, phy::kNumRates),
                       ::testing::Values("rayleigh", "multipath"),
                       ::testing::Bool()));

TEST_P(LiTransceiverChannels, BitExactOverPerSymbolCsi)
{
    // The LI equalizer and the batch receiver both ask the channel
    // for a symbol's bin gains; on a time-varying (rayleigh) and a
    // frequency-selective (multipath) channel they must agree, with
    // and without the demapper's |H| weighting (csi_weight).
    auto [rate, channel, csi_weight] = GetParam();
    const std::string cfg =
        std::string("snr_db=12,doppler_hz=20,seed=5") +
        (std::string(channel) == "multipath" ? ",num_taps=4,delay_spread=3"
                                             : "");
    ScenarioSpec spec = liSpec(rate, "bcjr", cfg.c_str(), channel);
    spec.rx.applyCsiWeight = csi_weight;
    Testbench tb(spec);
    LiTransceiver li_tx(spec);

    for (std::uint64_t p : {0u, 4u}) {
        BitVec payload = randomPayload(1000, 9 + p);
        const FrameResult kernel = tb.runFrameWithPayload(payload, p);
        LiPacketResult streamed = li_tx.runPacket(payload, p);
        EXPECT_EQ(streamed.payload, owned(kernel.rx.payload))
            << "packet " << p;
        ASSERT_EQ(streamed.soft.size(), kernel.rx.soft.size());
        for (size_t i = 0; i < streamed.soft.size(); ++i)
            ASSERT_EQ(streamed.soft[i].llr, kernel.rx.soft[i].llr)
                << "packet " << p << " hint " << i;
    }
}

TEST(LiTransceiver, CrossDomainSyncFifosInserted)
{
    LiTransceiver t(liSpec(2, "bcjr", "snr_db=10,seed=1"));
    // baseband->host, host->baseband, baseband->decoder.
    EXPECT_EQ(t.syncFifoCount(), 3);
}

TEST(LiTransceiver, ResultsInvariantUnderClockAssignment)
{
    // The system-level latency-insensitivity property: draw every
    // clock frequency at random and the decoded packet -- payload
    // and every SoftPHY hint -- still equals the batch path's. Only
    // the cycle counts may move.
    SplitMix64 rng(0xC10C);
    auto mhz = [&rng] { return 5.0 + 195.0 * rng.nextDouble(); };
    for (int rate = 0; rate < phy::kNumRates; ++rate) {
        for (const char *channel : {"awgn", "rayleigh"}) {
            ScenarioSpec spec = liSpec(
                rate, "sova",
                std::string(channel) == "awgn"
                    ? "snr_db=6,seed=3"
                    : "snr_db=6,doppler_hz=30,seed=3",
                channel);
            spec.clocks.basebandMhz = mhz();
            spec.clocks.decoderMhz = mhz();
            spec.clocks.hostMhz = mhz();
            BitVec payload = randomPayload(600, 21 + rate);
            Testbench tb(spec);
            const FrameResult kernel = tb.runFrameWithPayload(payload, 1);
            LiPacketResult streamed = LiTransceiver(spec).runPacket(
                payload, 1);
            const std::string where =
                std::string(channel) + " rate " + std::to_string(rate);
            EXPECT_EQ(streamed.payload, owned(kernel.rx.payload)) << where;
            ASSERT_EQ(streamed.soft.size(), kernel.rx.soft.size())
                << where;
            for (size_t i = 0; i < streamed.soft.size(); ++i)
                ASSERT_EQ(streamed.soft[i].llr, kernel.rx.soft[i].llr)
                    << where << " hint " << i;
        }
    }
}

TEST(LiTransceiver, StreamingThroughputIsSampleBound)
{
    // The TX front-end streams one sample per baseband cycle (the CP
    // inserter is the 80-cycles-per-symbol stage), so a packet of N
    // samples should take ~N baseband cycles plus pipeline fill, not
    // many multiples of it.
    LiTransceiver t(liSpec(4, "viterbi", "snr_db=20,seed=2"));
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
    LiTransceiver t(liSpec(2, "bcjr", "snr_db=10,seed=4"));
    BitVec payload = randomPayload(800, 5);
    LiPacketResult res = t.runPacket(payload, 0);
    double ratio = static_cast<double>(res.decoderCycles) /
                   static_cast<double>(res.basebandCycles);
    EXPECT_NEAR(ratio, 60.0 / 35.0, 0.05);
}

TEST(LiTransceiver, ReusableAcrossPackets)
{
    LiTransceiver t(liSpec(4, "bcjr", "snr_db=30,seed=6"));
    for (std::uint64_t p = 0; p < 4; ++p) {
        BitVec payload = randomPayload(500 + 100 * p, p);
        LiPacketResult res = t.runPacket(payload, p);
        EXPECT_EQ(res.payload, payload) << "packet " << p;
    }
}
