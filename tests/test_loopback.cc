/**
 * @file
 * Integration tests: full transmitter -> receiver loopback over a
 * noiseless channel must be exact for every rate, decoder, and a
 * range of payload sizes; moderate-SNR AWGN must decode with low
 * BER; high SNR must be error-free.
 */

#include <gtest/gtest.h>

#include <tuple>

#include "common/random.hh"
#include "phy/ofdm_rx.hh"
#include "phy/ofdm_tx.hh"
#include "sim/sweep.hh"
#include "sim/testbench.hh"

using namespace wilis;
using namespace wilis::phy;
using namespace wilis::sim;

class LoopbackAllRates
    : public ::testing::TestWithParam<std::tuple<int, const char *>>
{};

INSTANTIATE_TEST_SUITE_P(
    RatesAndDecoders, LoopbackAllRates,
    ::testing::Combine(::testing::Range(0, kNumRates),
                       ::testing::Values("viterbi", "sova", "bcjr")));

TEST_P(LoopbackAllRates, NoiselessLoopbackIsExact)
{
    auto [rate, decoder] = GetParam();
    OfdmTransmitter tx(rate);
    OfdmReceiver::Config rxc;
    rxc.decoder = decoder;
    OfdmReceiver rx(rate, rxc);
    FrameArena arena;

    for (size_t payload : {100u, 1704u}) {
        SplitMix64 rng(static_cast<std::uint64_t>(rate) * 131 +
                       payload);
        BitVec data(payload);
        for (auto &b : data)
            b = rng.nextBit();
        arena.reset();
        FrameContext ctx(arena);
        SampleSpan samples = tx.modulate(BitView(data), ctx);
        EXPECT_EQ(samples.size(),
                  OfdmGeometry::numSamples(rateTable(rate), payload));
        RxFrame res = rx.demodulate(samples, payload, nullptr, 0, ctx);
        EXPECT_EQ(res.bitErrors(data), 0u)
            << rateTable(rate).name() << " " << decoder << " payload "
            << payload;
    }
}

TEST(Loopback, FrameGeometry)
{
    // QAM16 1/2: N_DBPS = 96. A 1704-bit payload (the Figure 6 size)
    // plus 6 tail bits needs ceil(1710/96) = 18 symbols.
    const RateParams &qam16 = rateTable(4);
    EXPECT_EQ(OfdmGeometry::numSymbols(qam16, 1704), 18);
    EXPECT_EQ(OfdmGeometry::paddedInfoBits(qam16, 1704), 18u * 96u - 6u);
    EXPECT_EQ(OfdmGeometry::numSamples(qam16, 1704), 18u * 80u);

    // BPSK 1/2: N_DBPS = 24; 100 bits + 6 tail -> 5 symbols.
    EXPECT_EQ(OfdmGeometry::numSymbols(rateTable(0), 100), 5);
}

TEST(Loopback, OddPayloadSizes)
{
    OfdmTransmitter tx(2);
    OfdmReceiver rx(2);
    FrameArena arena;
    for (size_t payload : {1u, 7u, 95u, 96u, 97u, 1001u}) {
        SplitMix64 rng(payload);
        BitVec data(payload);
        for (auto &b : data)
            b = rng.nextBit();
        arena.reset();
        FrameContext ctx(arena);
        SampleSpan s = tx.modulate(BitView(data), ctx);
        RxFrame res = rx.demodulate(s, payload, nullptr, 0, ctx);
        EXPECT_EQ(res.bitErrors(data), 0u) << "payload " << payload;
    }
}

TEST(Loopback, HighSnrAwgnIsErrorFree)
{
    for (int rate : {0, 4, 7}) {
        ScenarioSpec cfg;
        cfg.rate = rate;
        cfg.rx.decoder = "bcjr";
        cfg.channelCfg = li::Config::fromString("snr_db=35,seed=2");
        Testbench tb(cfg);
        for (std::uint64_t p = 0; p < 5; ++p) {
            FrameResult res = tb.runFrame(1704, p);
            EXPECT_TRUE(res.ok) << "rate " << rate << " packet " << p;
        }
    }
}

TEST(Loopback, ModerateSnrDecodesWithLowBer)
{
    // QPSK 1/2 at 7 dB: raw channel BER ~ 1e-2, decoded BER < 1e-4.
    ScenarioSpec cfg;
    cfg.rate = 2;
    cfg.rx.decoder = "bcjr";
    cfg.channelCfg = li::Config::fromString("snr_db=7,seed=5");
    ErrorStats s = measureBer(cfg.withPayloadBits(1000), 40, 2);
    EXPECT_EQ(s.bits, 40000u);
    EXPECT_LT(s.ber(), 1e-3);
}

TEST(Loopback, LowSnrProducesErrors)
{
    ScenarioSpec cfg;
    cfg.rate = 7; // QAM64 3/4 is fragile
    cfg.rx.decoder = "viterbi";
    cfg.channelCfg = li::Config::fromString("snr_db=5,seed=5");
    ErrorStats s = measureBer(cfg.withPayloadBits(1000), 10, 2);
    EXPECT_GT(s.ber(), 1e-2);
}

TEST(Loopback, SweepIsThreadCountInvariant)
{
    ScenarioSpec cfg;
    cfg.rate = 4;
    cfg.rx.decoder = "sova";
    cfg.channelCfg = li::Config::fromString("snr_db=9,seed=11");
    ErrorStats a = measureBer(cfg.withPayloadBits(800), 16, 1);
    ErrorStats b = measureBer(cfg.withPayloadBits(800), 16, 4);
    EXPECT_EQ(a.bits, b.bits);
    EXPECT_EQ(a.errors, b.errors);
}

TEST(Loopback, FadingChannelEqualizationWorks)
{
    ScenarioSpec cfg;
    cfg.rate = 2;
    cfg.rx.decoder = "bcjr";
    cfg.channel = "rayleigh";
    cfg.channelCfg =
        li::Config::fromString("snr_db=40,doppler_hz=20,seed=9");
    Testbench tb(cfg);
    int ok = 0;
    for (std::uint64_t p = 0; p < 20; ++p)
        ok += tb.runFrame(500, p).ok;
    // With essentially no noise, only deep fades could hurt, and at
    // 40 dB mean SNR nearly all packets survive.
    EXPECT_GE(ok, 18);
}
