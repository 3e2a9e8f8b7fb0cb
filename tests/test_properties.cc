/**
 * @file
 * Property-based sweeps across the library: invariants that must
 * hold for randomized inputs over wide parameter grids -- roundtrip
 * identities, monotonicities, determinism, and arithmetic safety.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "channel/interference.hh"
#include "common/fixed_point.hh"
#include "common/random.hh"
#include "common/stats.hh"
#include "phy/fft.hh"
#include "phy/ofdm_rx.hh"
#include "phy/ofdm_tx.hh"
#include "sim/sweep.hh"

using namespace wilis;

// ---------------------------------------------------------------
// Fixed point.

TEST(FixedPointProps, QuantizeIsMonotoneAndBounded)
{
    for (int width : {3, 4, 6, 8, 12}) {
        std::int32_t prev = INT32_MIN;
        for (double x = -5.0; x <= 5.0; x += 0.01) {
            std::int32_t q = quantize(x, width, 2.0);
            EXPECT_GE(q, -(1 << (width - 1)));
            EXPECT_LE(q, (1 << (width - 1)) - 1);
            EXPECT_GE(q, prev) << "width " << width << " x " << x;
            prev = q;
        }
    }
}

TEST(FixedPointProps, DequantizeInvertsWithinOneLsb)
{
    const int width = 8;
    const double fs = 2.0;
    const double lsb = fs / ((1 << (width - 1)) - 1);
    SplitMix64 rng(5);
    for (int i = 0; i < 1000; ++i) {
        double x = (rng.nextDouble() - 0.5) * 2.0 * fs * 0.95;
        double back = dequantize(quantize(x, width, fs), width, fs);
        EXPECT_NEAR(back, x, lsb);
    }
}

TEST(FixedPointProps, SatIntSaturatesNotWraps)
{
    SatInt a(6, 30);
    SatInt b(6, 30);
    EXPECT_EQ((a + b).get(), 31);  // 60 saturates to max
    SatInt c(6, -30);
    EXPECT_EQ((c - b).get(), -32); // -60 saturates to min
    EXPECT_EQ((a - b).get(), 0);
}

// ---------------------------------------------------------------
// RNG.

TEST(RandomProps, CounterRngIsPureFunction)
{
    CounterRng a(42);
    CounterRng b(42);
    for (std::uint64_t i = 0; i < 100; ++i)
        EXPECT_EQ(a.at(i * 7919), b.at(i * 7919));
    // Order independence.
    EXPECT_EQ(a.at(5), b.at(5));
    EXPECT_EQ(a.at(3), b.at(3));
}

TEST(RandomProps, ForkedStreamsDiffer)
{
    CounterRng root(42);
    CounterRng s1 = root.fork(1);
    CounterRng s2 = root.fork(2);
    int same = 0;
    for (std::uint64_t i = 0; i < 64; ++i)
        same += s1.at(i) == s2.at(i);
    EXPECT_EQ(same, 0);
}

TEST(RandomProps, GaussianMomentsAreStandardNormal)
{
    GaussianSource g(12345);
    RunningStats st;
    double kurt_acc = 0.0;
    const int n = 200000;
    for (int i = 0; i < n; ++i) {
        double x = g.next();
        st.add(x);
        kurt_acc += x * x * x * x;
    }
    EXPECT_NEAR(st.mean(), 0.0, 0.01);
    EXPECT_NEAR(st.variance(), 1.0, 0.02);
    EXPECT_NEAR(kurt_acc / n, 3.0, 0.1); // normal kurtosis
}

TEST(RandomProps, UniformBitsAreBalanced)
{
    SplitMix64 rng(9);
    int ones = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        ones += rng.nextBit();
    EXPECT_NEAR(static_cast<double>(ones) / n, 0.5, 0.01);
}

// ---------------------------------------------------------------
// Stats.

TEST(StatsProps, MergeEqualsSequential)
{
    SplitMix64 rng(3);
    RunningStats whole;
    RunningStats a;
    RunningStats b;
    for (int i = 0; i < 10000; ++i) {
        double x = rng.nextDouble() * 10.0 - 3.0;
        whole.add(x);
        (i % 3 ? a : b).add(x);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), whole.count());
    EXPECT_NEAR(a.mean(), whole.mean(), 1e-9);
    EXPECT_NEAR(a.variance(), whole.variance(), 1e-9);
}

TEST(StatsProps, MergeWithEmptyIsIdentity)
{
    RunningStats a;
    a.add(1.0);
    a.add(2.0);
    RunningStats empty;
    a.merge(empty);
    EXPECT_EQ(a.count(), 2u);
    EXPECT_NEAR(a.mean(), 1.5, 1e-12);

    RunningStats c;
    c.merge(a);
    EXPECT_EQ(c.count(), 2u);
    EXPECT_NEAR(c.mean(), 1.5, 1e-12);
}

// ---------------------------------------------------------------
// End-to-end roundtrip sweeps.

class RoundTripAllRates : public ::testing::TestWithParam<int>
{};

INSTANTIATE_TEST_SUITE_P(Rates, RoundTripAllRates,
                         ::testing::Range(0, phy::kNumRates));

TEST_P(RoundTripAllRates, RandomSizesNoiseless)
{
    int rate = GetParam();
    phy::OfdmTransmitter tx(rate);
    phy::OfdmReceiver rx(rate);
    FrameArena arena;
    SplitMix64 rng(static_cast<std::uint64_t>(rate) + 1000);
    for (int trial = 0; trial < 8; ++trial) {
        size_t bits = 1 + rng.nextBelow(3000);
        BitVec payload(bits);
        for (auto &b : payload)
            b = rng.nextBit();
        arena.reset();
        FrameContext ctx(arena);
        SampleSpan s = tx.modulate(BitView(payload), ctx);
        phy::RxFrame res = rx.demodulate(s, bits, nullptr, 0, ctx);
        ASSERT_EQ(res.bitErrors(payload), 0u)
            << "rate " << rate << " size " << bits;
    }
}

TEST_P(RoundTripAllRates, TxEnergyIsNormalized)
{
    // Average time-domain sample energy must be ~(52/64) regardless
    // of modulation (unit-energy constellations, unitary IFFT).
    int rate = GetParam();
    phy::OfdmTransmitter tx(rate);
    SplitMix64 rng(static_cast<std::uint64_t>(rate) + 7);
    BitVec payload(2000);
    for (auto &b : payload)
        b = rng.nextBit();
    FrameArena arena;
    FrameContext ctx(arena);
    SampleSpan s = tx.modulate(BitView(payload), ctx);
    double e = 0.0;
    for (const auto &v : s)
        e += std::norm(v);
    double per_sample = e / static_cast<double>(s.size());
    // CP repeats symbol tails, so expectation stays (52/64).
    EXPECT_NEAR(per_sample, 52.0 / 64.0, 0.08)
        << phy::rateTable(rate).name();
}

class BerMonotoneInSnr : public ::testing::TestWithParam<const char *>
{};

INSTANTIATE_TEST_SUITE_P(Decoders, BerMonotoneInSnr,
                         ::testing::Values("viterbi", "sova", "bcjr"));

TEST_P(BerMonotoneInSnr, WaterfallDecreases)
{
    // BER must be (weakly) decreasing in SNR across the waterfall.
    double prev = 1.0;
    for (double snr : {0.0, 2.0, 4.0, 6.0}) {
        sim::ScenarioSpec cfg;
        cfg.rate = 2;
        cfg.rx.decoder = GetParam();
        cfg.channelCfg = li::Config::fromString(
            "snr_db=" + std::to_string(snr) + ",seed=31");
        ErrorStats s = sim::measureBer(cfg.withPayloadBits(1000), 25, 2);
        EXPECT_LE(s.ber(), prev * 1.05 + 1e-6)
            << GetParam() << " at " << snr << " dB";
        prev = s.ber();
    }
    EXPECT_LT(prev, 1e-3); // and the waterfall actually fell
}

// ---------------------------------------------------------------
// Interference channel.

TEST(Interference, ToneConcentratesOnOneSubcarrier)
{
    channel::InterferenceChannel ch({.awgn = {.snrDb = 100, .seed = 2},
                                     .sirDb = 0,
                                     .interfererBin = 10});
    // Push a silent symbol through and look at the FFT.
    SampleVec s(80, Sample(0, 0));
    ch.apply(s, 0);
    SampleVec body(s.begin() + 16, s.end());
    phy::Fft fft(64);
    fft.forward(body);
    double on_bin = std::norm(body[10]);
    double elsewhere = 0.0;
    for (int k = 0; k < 64; ++k) {
        if (k != 10)
            elsewhere = std::max(elsewhere, std::norm(body[k]));
    }
    EXPECT_GT(on_bin, 100.0 * elsewhere);
}

TEST(Interference, StrongerInterferenceRaisesBer)
{
    // Near the waterfall edge a strong tone measurably hurts; the
    // coding + interleaving absorb a weak one.
    auto ber_at = [](double sir) {
        sim::ScenarioSpec cfg;
        cfg.rate = 2;
        cfg.rx.decoder = "bcjr";
        cfg.channel = "interference";
        cfg.channelCfg = li::Config::fromString(
            "snr_db=4,sir_db=" + std::to_string(sir) +
            ",interferer_bin=10,seed=3");
        return sim::measureBer(cfg.withPayloadBits(1000), 30, 2).ber();
    };
    double weak = ber_at(25.0);
    double strong = ber_at(-6.0);
    EXPECT_GT(strong, 2.0 * weak + 1e-6);
    EXPECT_GT(strong, 1e-4);
}

TEST(Interference, BatchAndStreamingAgree)
{
    const channel::InterferenceChannel::Params p{
        .awgn = {.snrDb = 10, .seed = 4}, .sirDb = 5, .interfererBin = -13};
    channel::InterferenceChannel batch(p);
    channel::InterferenceChannel stream(p);
    SampleVec s(320, Sample(0.5, -0.25));
    SampleVec expect = s;
    batch.apply(expect, 6);
    for (size_t i = 0; i < s.size(); ++i) {
        Sample got = stream.impairSample(s[i], 6, i);
        ASSERT_LT(std::abs(got - expect[i]), 1e-12) << i;
    }
}

TEST(Interference, RegistryCreates)
{
    auto ch = channel::makeChannel(
        "interference", li::Config::fromString("snr_db=10,seed=1"));
    EXPECT_EQ(ch->name(), "interference");
}
