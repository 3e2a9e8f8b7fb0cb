/**
 * @file
 * Decoder tests: noiseless exactness for Viterbi/SOVA/BCJR, decode
 * quality under noise, soft-output sanity (higher LLR -> lower error
 * probability), latency formulas, registry plug-n-play, and the
 * whole-block max-log BCJR kernel against its per-step oracle on
 * every kernel backend.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "bcjr_reference.hh"
#include "common/kernels.hh"
#include "common/random.hh"
#include "common/stats.hh"
#include "decode/bcjr.hh"
#include "decode/soft_decoder.hh"
#include "decode/sova.hh"
#include "decode/viterbi.hh"
#include "phy/conv_code.hh"

using namespace wilis;
using namespace wilis::phy;
using namespace wilis::decode;

namespace {

/** Rate-1/2 encode @p data, terminated, into a fresh vector. */
BitVec
encoded(const BitVec &data)
{
    BitVec out(2 * (data.size() + ConvCode::kTailBits));
    convCode().encode(data, true, out);
    return out;
}

/** Decode one terminated block into a fresh vector of decisions. */
std::vector<SoftDecision>
decoded(SoftDecoder &dec, SoftView soft)
{
    std::vector<SoftDecision> out(soft.size() / 2);
    dec.decodeInto(soft, out);
    return out;
}

/** Encode data (terminated) and map bits to +-amp soft values. */
SoftVec
cleanSoft(const BitVec &data, int amp)
{
    BitVec coded = encoded(data);
    SoftVec soft(coded.size());
    for (size_t i = 0; i < coded.size(); ++i)
        soft[i] = coded[i] ? amp : -amp;
    return soft;
}

BitVec
randomBits(size_t n, std::uint64_t seed)
{
    SplitMix64 rng(seed);
    BitVec v(n);
    for (auto &b : v)
        b = rng.nextBit();
    return v;
}

/** Add Gaussian noise to clean +-amp soft values, then requantize. */
SoftVec
noisySoft(const BitVec &data, double amp, double sigma,
          std::uint64_t seed)
{
    BitVec coded = encoded(data);
    GaussianSource g(seed);
    SoftVec soft(coded.size());
    for (size_t i = 0; i < coded.size(); ++i) {
        double v = (coded[i] ? amp : -amp) + sigma * g.next();
        soft[i] = static_cast<SoftBit>(std::lround(v));
    }
    return soft;
}

std::uint64_t
countBitErrors(const std::vector<SoftDecision> &dec, const BitVec &data)
{
    std::uint64_t e = 0;
    for (size_t i = 0; i < data.size(); ++i)
        e += dec[i].bit != data[i];
    return e;
}

} // namespace

class DecoderNames : public ::testing::TestWithParam<const char *>
{};

INSTANTIATE_TEST_SUITE_P(AllDecoders, DecoderNames,
                         ::testing::Values("viterbi", "sova", "bcjr",
                                           "bcjr-logmap"));

TEST_P(DecoderNames, RegistryCreates)
{
    auto dec = makeDecoder(GetParam());
    ASSERT_NE(dec, nullptr);
    EXPECT_EQ(dec->name(), GetParam());
}

TEST_P(DecoderNames, NoiselessDecodeIsExact)
{
    auto dec = makeDecoder(GetParam());
    for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
        BitVec data = randomBits(500, seed);
        auto out = decoded(*dec, cleanSoft(data, 15));
        ASSERT_EQ(out.size(), data.size() + ConvCode::kTailBits);
        EXPECT_EQ(countBitErrors(out, data), 0u) << "seed " << seed;
        // Tail bits decode to zero.
        for (size_t i = data.size(); i < out.size(); ++i)
            EXPECT_EQ(out[i].bit, 0);
    }
}

TEST_P(DecoderNames, ShortBlocksDecode)
{
    auto dec = makeDecoder(GetParam());
    for (size_t n : {1u, 2u, 7u, 13u, 64u}) {
        BitVec data = randomBits(n, 77 + n);
        auto out = decoded(*dec, cleanSoft(data, 7));
        EXPECT_EQ(countBitErrors(out, data), 0u) << "len " << n;
    }
}

TEST_P(DecoderNames, CorrectsBurstsOfErasures)
{
    auto dec = makeDecoder(GetParam());
    BitVec data = randomBits(300, 5);
    SoftVec soft = cleanSoft(data, 15);
    // Erase 8 consecutive coded bits (as a puncturer would).
    for (size_t i = 100; i < 108; ++i)
        soft[i] = 0;
    auto out = decoded(*dec, soft);
    EXPECT_EQ(countBitErrors(out, data), 0u);
}

TEST_P(DecoderNames, CorrectsModerateNoise)
{
    // amp=15, sigma=9 corresponds to ~4.4 dB Eb/N0 on the rate-1/2
    // BPSK-equivalent channel; the K=7 code decodes this with BER
    // well below 1e-3.
    auto dec = makeDecoder(GetParam());
    std::uint64_t bits = 0;
    std::uint64_t errs = 0;
    for (std::uint64_t p = 0; p < 30; ++p) {
        BitVec data = randomBits(1000, 1000 + p);
        auto out = decoded(*dec, noisySoft(data, 15.0, 9.0, p));
        errs += countBitErrors(out, data);
        bits += data.size();
    }
    double ber = static_cast<double>(errs) / static_cast<double>(bits);
    EXPECT_LT(ber, 2e-3) << "decoder " << GetParam();
}

TEST(Decoders, SoftOutputFlagsMatchImplementations)
{
    EXPECT_FALSE(makeDecoder("viterbi")->producesSoftOutput());
    EXPECT_TRUE(makeDecoder("sova")->producesSoftOutput());
    EXPECT_TRUE(makeDecoder("bcjr")->producesSoftOutput());
}

TEST(Decoders, SovaLatencyFormula)
{
    // Section 4.3.1: l + k + 12; 140 cycles at l = k = 64.
    SovaDecoder dflt;
    EXPECT_EQ(dflt.pipelineLatencyCycles(), 140);

    SovaDecoder custom({.tracebackL = 32, .tracebackK = 48});
    EXPECT_EQ(custom.pipelineLatencyCycles(), 32 + 48 + 12);
}

TEST(Decoders, BcjrLatencyFormula)
{
    // Section 4.3.2: 2n + 7; 135 cycles at n = 64.
    BcjrDecoder dflt;
    EXPECT_EQ(dflt.pipelineLatencyCycles(), 135);

    BcjrDecoder custom({.blockLen = 32});
    EXPECT_EQ(custom.pipelineLatencyCycles(), 71);
}

TEST(Decoders, LatenciesMeetWifiBudget)
{
    // At 60 MHz both decoders stay well under the 25 us 802.11a/g
    // turnaround budget (2.3 us SOVA, 2.2 us BCJR).
    const double cycle_us = 1.0 / 60.0;
    EXPECT_LT(SovaDecoder().pipelineLatencyCycles() * cycle_us, 2.4);
    EXPECT_LT(BcjrDecoder().pipelineLatencyCycles() * cycle_us, 2.3);
    EXPECT_LT(SovaDecoder().pipelineLatencyCycles() * cycle_us, 25.0);
}

class SoftHintQuality : public ::testing::TestWithParam<const char *>
{};

INSTANTIATE_TEST_SUITE_P(SoftDecoders, SoftHintQuality,
                         ::testing::Values("sova", "bcjr",
                                           "bcjr-logmap"));

TEST_P(SoftHintQuality, HigherLlrMeansFewerErrors)
{
    auto dec = makeDecoder(GetParam());
    std::vector<std::pair<double, bool>> samples; // (llr, error)
    for (std::uint64_t p = 0; p < 60; ++p) {
        BitVec data = randomBits(1000, 31337 + p);
        SoftVec soft = noisySoft(data, 10.0, 9.0, 555 + p);
        auto out = decoded(*dec, soft);
        for (size_t i = 0; i < data.size(); ++i)
            samples.emplace_back(out[i].llr, out[i].bit != data[i]);
    }
    // Compare the error rate of the least-confident third against
    // the most-confident third (scale-free across decoders).
    std::sort(samples.begin(), samples.end(),
              [](const auto &a, const auto &b) {
                  return a.first < b.first;
              });
    const size_t third = samples.size() / 3;
    std::uint64_t low_err = 0;
    std::uint64_t high_err = 0;
    for (size_t i = 0; i < third; ++i) {
        low_err += samples[i].second;
        high_err += samples[samples.size() - 1 - i].second;
    }
    double low_rate = static_cast<double>(low_err) /
                      static_cast<double>(third);
    double high_rate = static_cast<double>(high_err) /
                       static_cast<double>(third);
    EXPECT_GT(low_rate, high_rate)
        << "low-confidence bits must err more often";
    EXPECT_GT(low_rate, 5.0 * (high_rate + 1e-9));
}

TEST(Decoders, SovaAndBcjrAgreeOnHardBitsMostly)
{
    auto sova = makeDecoder("sova");
    auto bcjr = makeDecoder("bcjr");
    std::uint64_t diff = 0;
    std::uint64_t total = 0;
    for (std::uint64_t p = 0; p < 10; ++p) {
        BitVec data = randomBits(1000, 999 + p);
        SoftVec soft = noisySoft(data, 12.0, 8.0, 3 + p);
        auto a = decoded(*sova, soft);
        auto b = decoded(*bcjr, soft);
        for (size_t i = 0; i < data.size(); ++i)
            diff += a[i].bit != b[i].bit;
        total += data.size();
    }
    EXPECT_LT(static_cast<double>(diff) / static_cast<double>(total),
              1e-2);
}

TEST(Decoders, BcjrSmallWindowDegrades)
{
    // Section 4.3.2: block size below 32 costs accuracy. Compare
    // window 8 against window 64 at a noise level with plenty of
    // errors.
    BcjrDecoder small({.blockLen = 8});
    BcjrDecoder big; // 64

    std::uint64_t errs_small = 0;
    std::uint64_t errs_big = 0;
    for (std::uint64_t p = 0; p < 40; ++p) {
        BitVec data = randomBits(800, 123456 + p);
        SoftVec soft = noisySoft(data, 8.0, 9.5, 77 + p);
        errs_small += countBitErrors(decoded(small, soft), data);
        errs_big += countBitErrors(decoded(big, soft), data);
    }
    EXPECT_GT(errs_small, errs_big);
}

// ---------------------------------------------------------------
// The whole-block max-log kernel against the per-step oracle

namespace {

/** Soft-value regimes the property test draws from. */
enum class SoftRegime {
    /** A noisy codeword, the decoder's everyday input. */
    Codeword,
    /** Uniform in [-2^23, 2^23]: the soft_width 24 quantizer range. */
    Width24,
    /** Every value on a rail of +-M, random signs (widest spread). */
    Rails,
    /** Uniform in [-2^26, 2^26], where the clamp fires. */
    PastBound,
    /** Small values with one spike past the clamp-free bound. */
    Spike,
    /**
     * A noiseless codeword on rails of +-M, M just below, at or just
     * above the magnitude where the deferred-normalization period K
     * steps down: the true path gains 2M a step, the fastest any
     * metric row can grow, so a row reaches the drift the period
     * bound allows.
     */
    Deferral,
};

/**
 * The largest max|soft| at which the BCJR kernel may go @p period
 * steps between normalizations: the largest sum it forms, alpha + bm
 * + beta with both rows period - 1 steps out, is 2M(2 * period - 1)
 * and must stay within int32 (docs/ARCHITECTURE.md, "The whole-block
 * BCJR kernel").
 */
SoftBit
deferralBound(std::int64_t period)
{
    return static_cast<SoftBit>(
        std::numeric_limits<std::int32_t>::max() / (2 * (2 * period - 1)));
}

SoftVec
regimeSoft(SoftRegime r, int steps, SplitMix64 &rng)
{
    SoftVec soft(2 * static_cast<size_t>(steps));
    auto uniform = [&](std::int64_t mag) {
        return static_cast<SoftBit>(
            static_cast<std::int64_t>(rng.nextBelow(
                static_cast<std::uint64_t>(2 * mag + 1))) -
            mag);
    };
    switch (r) {
      case SoftRegime::Codeword: {
        // steps - 6 data bits plus the 6 tail bits of the encoder.
        const int data_bits = steps > 6 ? steps - 6 : 0;
        BitVec data = randomBits(static_cast<size_t>(data_bits),
                                 rng.next());
        BitVec coded = encoded(data);
        coded.resize(soft.size(), 0);
        GaussianSource g(rng.next());
        for (size_t i = 0; i < soft.size(); ++i)
            soft[i] = static_cast<SoftBit>(
                std::lround((coded[i] ? 12.0 : -12.0) + 9.0 * g.next()));
        break;
      }
      case SoftRegime::Width24:
        for (auto &x : soft)
            x = uniform(1 << 23);
        // Both quantizer rails appear at least once.
        soft.front() = -(1 << 23);
        soft.back() = (1 << 23) - 1;
        break;
      case SoftRegime::Rails: {
        // The largest magnitude the clamp-free path takes, the
        // smallest one past it, and one where the clamp fires on live
        // states.
        const SoftBit rails[] = {12201611, 12201612, 1 << 26};
        const SoftBit m = rails[rng.nextBelow(3)];
        for (auto &x : soft)
            x = rng.nextBelow(2) ? m : -m;
        break;
      }
      case SoftRegime::PastBound:
        for (auto &x : soft)
            x = uniform(1 << 26);
        break;
      case SoftRegime::Spike:
        for (auto &x : soft)
            x = uniform(40);
        soft[rng.nextBelow(soft.size())] = (1 << 24) + 3;
        break;
      case SoftRegime::Deferral: {
        // Periods 64 (near soft_width 24) and 700 (several periods
        // per 2000-step block).
        const std::int64_t period = rng.nextBelow(2) ? 64 : 700;
        const SoftBit m = deferralBound(period) - 1 +
                          static_cast<SoftBit>(rng.nextBelow(3));
        const int data_bits = steps > 6 ? steps - 6 : 0;
        BitVec coded = encoded(randomBits(
            static_cast<size_t>(data_bits), rng.next()));
        coded.resize(soft.size(), 0);
        for (size_t i = 0; i < soft.size(); ++i)
            soft[i] = coded[i] ? m : -m;
        break;
      }
    }
    return soft;
}

class BcjrKernelProperty : public ::testing::Test
{
  protected:
    void
    TearDown() override
    {
        kernels::setBackend(kernels::availableBackends().back());
    }
};

} // namespace

TEST_F(BcjrKernelProperty, MatchesPerStepReferenceOnEveryBackend)
{
    SplitMix64 rng(0xBC5A);
    const SoftRegime regimes[] = {
        SoftRegime::Codeword,  SoftRegime::Width24, SoftRegime::Rails,
        SoftRegime::PastBound, SoftRegime::Spike,   SoftRegime::Deferral,
    };
    int cases = 0;
    for (int block_len : {7, 32, 64, 1000}) {
        // Shorter than the code memory, around one and two windows,
        // exact multiples of the window, random lengths to 2000, and
        // blocks past 2000 steps.
        std::vector<int> lengths = {1,
                                    2,
                                    5,
                                    6,
                                    7,
                                    13,
                                    block_len - 1,
                                    block_len,
                                    block_len + 1,
                                    2 * block_len,
                                    2 * block_len + 5,
                                    3 * block_len,
                                    2000,
                                    2731};
        for (int i = 0; i < 4; ++i)
            lengths.push_back(1 + static_cast<int>(rng.nextBelow(2000)));
        for (int steps : lengths) {
            if (steps > 3000)
                continue;
            for (SoftRegime r : regimes) {
                SoftVec soft = regimeSoft(r, steps, rng);
                std::vector<SoftDecision> want(
                    static_cast<size_t>(steps));
                bcjrMaxLogReference(soft, block_len, want);
                BcjrDecoder dec({.blockLen = block_len});
                for (kernels::Backend b : kernels::availableBackends()) {
                    ASSERT_TRUE(kernels::setBackend(b));
                    std::vector<SoftDecision> got =
                        decoded(dec, soft);
                    ASSERT_EQ(got.size(), want.size());
                    for (size_t j = 0; j < want.size(); ++j) {
                        ASSERT_EQ(got[j].bit, want[j].bit)
                            << kernels::backendName(b) << " block_len "
                            << block_len << " steps " << steps
                            << " regime " << static_cast<int>(r)
                            << " step " << j;
                        ASSERT_EQ(got[j].llr, want[j].llr)
                            << kernels::backendName(b) << " block_len "
                            << block_len << " steps " << steps
                            << " regime " << static_cast<int>(r)
                            << " step " << j;
                    }
                }
                ++cases;
            }
        }
    }
    EXPECT_GT(cases, 300);
}

TEST(DecodersDeath, OddStreamPanics)
{
    auto dec = makeDecoder("viterbi");
    SoftVec bad(15, 1);
    EXPECT_DEATH(decoded(*dec, bad), "odd");
}

TEST(DecodersDeath, OutOfRangeWindowsAreFatal)
{
    // A window below the constraint length (or past
    // kMaxDecoderWindow) is a user error: exit 1 naming the key, not
    // an abort.
    const std::pair<const char *, const char *> bad[] = {
        {"viterbi", "traceback_len=2"}, {"sova", "traceback_l=6"},
        {"sova", "traceback_k=0"},      {"bcjr", "block_len=3"},
        {"bcjr", "block_len=1048577"},
    };
    for (const auto &[name, cfg] : bad) {
        const std::string key =
            std::string(cfg).substr(0, std::string(cfg).find('='));
        EXPECT_EXIT(makeDecoder(name, li::Config::fromString(cfg)),
                    testing::ExitedWithCode(1),
                    "fatal: " + key + " [0-9]+ out of range")
            << name << " " << cfg;
    }
}
