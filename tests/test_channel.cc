/**
 * @file
 * Channel model tests: AWGN statistics, replay determinism (the
 * SoftRate oracle requirement), thread-count invariance, Rayleigh
 * fading statistics/time-correlation, the per-symbol CSI contract
 * and full-range seeds.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <utility>

#include "channel/awgn.hh"
#include "channel/fading.hh"
#include "channel/multipath.hh"
#include "common/stats.hh"
#include "phy/ofdm_symbol.hh"

using namespace wilis;
using namespace wilis::channel;

TEST(Awgn, NoiseVarianceMatchesSnr)
{
    for (double snr_db : {0.0, 6.0, 10.0}) {
        AwgnChannel ch({.snrDb = snr_db, .seed = 42});
        SampleVec samples(200000, Sample(0.0, 0.0));
        ch.apply(samples, 0);

        RunningStats re, im;
        for (const auto &s : samples) {
            re.add(s.real());
            im.add(s.imag());
        }
        double n0 = std::pow(10.0, -snr_db / 10.0);
        EXPECT_NEAR(re.mean(), 0.0, 0.01) << snr_db;
        EXPECT_NEAR(im.mean(), 0.0, 0.01) << snr_db;
        EXPECT_NEAR(re.variance() + im.variance(), n0, 0.03 * n0)
            << snr_db;
        EXPECT_NEAR(ch.noiseVariance(), n0, 1e-12);
    }
}

TEST(Awgn, ReplayIsDeterministicPerPacket)
{
    AwgnChannel ch({.snrDb = 10.0, .seed = 7});
    SampleVec a(5000, Sample(1.0, -1.0));
    SampleVec b(5000, Sample(1.0, -1.0));
    ch.apply(a, 3);
    ch.apply(b, 3);
    EXPECT_EQ(a, b);

    SampleVec c(5000, Sample(1.0, -1.0));
    ch.apply(c, 4);
    EXPECT_NE(a, c);
}

TEST(Awgn, ReplayOrderIndependent)
{
    // Applying packets in any order yields identical noise.
    AwgnChannel ch({.snrDb = 10.0, .seed = 7});
    SampleVec p0_first(1000, Sample(0, 0));
    SampleVec p1_first(1000, Sample(0, 0));
    ch.apply(p0_first, 0);
    ch.apply(p1_first, 1);

    AwgnChannel ch2({.snrDb = 10.0, .seed = 7});
    SampleVec p1_again(1000, Sample(0, 0));
    SampleVec p0_again(1000, Sample(0, 0));
    ch2.apply(p1_again, 1);
    ch2.apply(p0_again, 0);
    EXPECT_EQ(p0_first, p0_again);
    EXPECT_EQ(p1_first, p1_again);
}

TEST(Awgn, ThreadCountDoesNotChangeNoise)
{
    SampleVec one(8192, Sample(0, 0));
    SampleVec four(8192, Sample(0, 0));
    AwgnChannel ch1({.snrDb = 8.0, .seed = 99, .threads = 1});
    AwgnChannel ch4({.snrDb = 8.0, .seed = 99, .threads = 4});
    ch1.apply(one, 5);
    ch4.apply(four, 5);
    EXPECT_EQ(one, four);
}

TEST(Awgn, SnrKnobIsVariable)
{
    AwgnChannel ch({.snrDb = 30.0, .seed = 1});
    SampleVec quiet(10000, Sample(0, 0));
    ch.apply(quiet, 0);
    ch.setSnrDb(0.0);
    SampleVec loud(10000, Sample(0, 0));
    ch.apply(loud, 0);

    double e_quiet = 0.0;
    double e_loud = 0.0;
    for (size_t i = 0; i < quiet.size(); ++i) {
        e_quiet += std::norm(quiet[i]);
        e_loud += std::norm(loud[i]);
    }
    EXPECT_GT(e_loud, 100.0 * e_quiet);
}

TEST(Rayleigh, UnitMeanPower)
{
    // Ensemble + time average over several oscillator-bank draws:
    // single realizations of a 16-oscillator Clarke model have a
    // per-draw power wobble, but the ensemble converges to 1.
    RunningStats pwr;
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
        RayleighChannel ch({.awgn = {.snrDb = 100.0, .seed = seed}});
        for (std::uint64_t p = 0; p < 4000; ++p)
            pwr.add(std::norm(ch.gain(p, 0)));
    }
    EXPECT_NEAR(pwr.mean(), 1.0, 0.1);
}

TEST(Rayleigh, AmplitudeIsRayleighShaped)
{
    // For Rayleigh |h| with E|h|^2 = 1: P(|h|^2 < x) = 1 - e^-x.
    // Check the deep-fade probability P(|h|^2 < 0.1) ~ 9.5%.
    std::uint64_t deep = 0;
    std::uint64_t total = 0;
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
        RayleighChannel ch({.awgn = {.snrDb = 100.0, .seed = seed}});
        for (std::uint64_t p = 0; p < 4000; ++p) {
            deep += std::norm(ch.gain(p, 0)) < 0.1;
            ++total;
        }
    }
    double frac = static_cast<double>(deep) / static_cast<double>(total);
    EXPECT_NEAR(frac, 1.0 - std::exp(-0.1), 0.035);
}

TEST(Rayleigh, GainVariesAcrossPacketsButSlowlyWithinPacket)
{
    RayleighChannel ch({.awgn = {.snrDb = 10.0, .seed = 3}});
    // Within a packet (~100 us at 20 Hz Doppler) the gain is nearly
    // constant; across 50 packets (100 ms) it decorrelates.
    Sample g0 = ch.gain(0, 0);
    Sample g_end = ch.gain(0, 20);
    EXPECT_LT(std::abs(g0 - g_end), 0.12 * (std::abs(g0) + 0.1));

    RunningStats diff;
    for (std::uint64_t p = 0; p < 200; ++p)
        diff.add(std::abs(ch.gain(p, 0) - ch.gain(p + 50, 0)));
    EXPECT_GT(diff.mean(), 0.3);
}

TEST(Rayleigh, ApplyScalesAndAddsNoise)
{
    // Very low noise.
    RayleighChannel ch({.awgn = {.snrDb = 60.0, .seed = 8}});
    SampleVec samples(80, Sample(1.0, 0.0));
    ch.apply(samples, 17);
    Sample g = ch.gain(17, 0);
    for (const auto &s : samples)
        EXPECT_LT(std::abs(s - g), 0.05);
}

TEST(Rayleigh, DeterministicPerSeed)
{
    RayleighChannel a({.awgn = {.snrDb = 10.0, .seed = 5}});
    RayleighChannel b({.awgn = {.snrDb = 10.0, .seed = 5}});
    RayleighChannel c({.awgn = {.snrDb = 10.0, .seed = 6}});
    EXPECT_EQ(a.gain(3, 1), b.gain(3, 1));
    EXPECT_NE(a.gain(3, 1), c.gain(3, 1));
}

TEST(Awgn, CommonNoiseModeRepeatsAcrossPackets)
{
    // The paper's pseudo-random noise model: with common_noise the
    // same noise sequence hits every packet, so packet success
    // becomes a deterministic function of the fading level.
    AwgnChannel ch({.snrDb = 10, .seed = 7, .commonNoise = true});
    SampleVec a(1000, Sample(0, 0));
    SampleVec b(1000, Sample(0, 0));
    ch.apply(a, 3);
    ch.apply(b, 8);
    EXPECT_EQ(a, b);

    // Without the flag, packets see independent noise.
    AwgnChannel indep({.snrDb = 10.0, .seed = 7});
    SampleVec c(1000, Sample(0, 0));
    SampleVec d(1000, Sample(0, 0));
    indep.apply(c, 3);
    indep.apply(d, 8);
    EXPECT_NE(c, d);
}

TEST(Rayleigh, BlockFadingHoldsGainWithinPacket)
{
    RayleighChannel ch({.awgn = {.snrDb = 10, .seed = 3},
                        .blockFading = true});
    EXPECT_EQ(ch.gain(5, 0), ch.gain(5, 30));
    EXPECT_NE(ch.gain(5, 0), ch.gain(50, 0));

    RayleighChannel ch2({.awgn = {.snrDb = 10, .seed = 3}});
    EXPECT_NE(ch2.gain(5, 0), ch2.gain(5, 30));
}

TEST(ChannelRegistry, CreatesByName)
{
    li::Config cfg;
    cfg.set("snr_db", "12");
    auto awgn = makeChannel("awgn", cfg);
    EXPECT_EQ(awgn->name(), "awgn");
    EXPECT_NEAR(awgn->noiseVariance(), std::pow(10.0, -1.2), 1e-9);

    auto ray = makeChannel("rayleigh", cfg);
    EXPECT_EQ(ray->name(), "rayleigh");
}

namespace {

constexpr int kBins = phy::OfdmGeometry::kFftSize;

/**
 * binGains() at several (packet, symbol) points must equal
 * @p old_bin_gain(packet, symbol, bin) -- the per-bin CSI the
 * receiver used to ask for -- bit for bit in every bin.
 */
template <typename OldBinGain>
void
expectBinGainsMatch(const Channel &ch, OldBinGain old_bin_gain)
{
    const std::pair<std::uint64_t, int> points[] = {
        {0, 0}, {0, 7}, {3, 1}, {17, 40}, {250, 3}};
    SampleVec bins(kBins);
    for (const auto &[p, s] : points) {
        ch.binGains(p, s, bins);
        for (int k = 0; k < kBins; ++k)
            ASSERT_EQ(bins[static_cast<size_t>(k)], old_bin_gain(p, s, k))
                << ch.name() << " packet " << p << " symbol " << s
                << " bin " << k;
    }
}

} // namespace

TEST(ChannelCsi, FlatChannelsFillEveryBinWithTheSymbolGain)
{
    const std::pair<const char *, const char *> flat[] = {
        {"awgn", "snr_db=10,seed=3"},
        {"rayleigh", "snr_db=10,doppler_hz=20,seed=3"},
        {"rayleigh", "snr_db=10,doppler_hz=200,seed=4,block_fading=true"},
        {"ar1", "snr_db=10,doppler_hz=30,seed=5"},
        {"interference", "snr_db=15,sir_db=10,seed=6"},
    };
    for (const auto &[name, cfg] : flat) {
        auto ch = makeChannel(name, li::Config::fromString(cfg));
        // A flat channel's per-bin gain was gain() in every bin.
        expectBinGainsMatch(*ch, [&](std::uint64_t p, int s, int) {
            return ch->gain(p, s);
        });
    }
}

TEST(ChannelCsi, MultipathEvaluatesTheTapSumPerBin)
{
    for (const char *cfg : {"snr_db=10,num_taps=4,delay_spread=3,seed=7",
                            "snr_db=10,num_taps=1,seed=8",
                            "snr_db=10,num_taps=17,delay_spread=5,seed=9"}) {
        auto made = makeChannel("multipath", li::Config::fromString(cfg));
        const auto &ch = dynamic_cast<const MultipathChannel &>(*made);
        // The per-bin formula binGains() replaced: every tap's value
        // and twiddle evaluated for each bin (tap l sits at delay l).
        const auto old_bin_gain = [&](std::uint64_t p, int s, int bin) {
            Sample h(0.0, 0.0);
            for (int l = 0; l < ch.numTaps(); ++l) {
                double ang =
                    -2.0 * std::numbers::pi * bin * l / kBins;
                h += ch.tapValue(p, s, l) *
                     Sample(std::cos(ang), std::sin(ang));
            }
            return h;
        };
        expectBinGainsMatch(ch, old_bin_gain);
        EXPECT_EQ(ch.gain(5, 2), old_bin_gain(5, 2, 0)) << cfg;
    }
}

TEST(ChannelSeeds, SeedsKeepTheirFull64BitRange)
{
    // Seeds at and past 2^63 used to saturate to 2^63 - 1 in the
    // config parse, so all four of these ran the same channel.
    const char *seeds[] = {"9223372036854775807", "9223372036854775808",
                           "9223372036854775809",
                           "18446744073709551615"};
    for (const char *name :
         {"awgn", "rayleigh", "ar1", "interference", "multipath"}) {
        std::vector<SampleVec> out;
        for (const char *seed : seeds) {
            auto ch = makeChannel(
                name, li::Config::fromString(
                          std::string("snr_db=10,seed=") + seed));
            SampleVec samples(160, Sample(1.0, 0.0));
            ch->apply(samples, 2);
            for (const SampleVec &prev : out)
                EXPECT_NE(prev, samples) << name << " seed " << seed;
            out.push_back(samples);
        }
    }
}

TEST(ChannelSeedsDeath, NegativeSeedIsFatal)
{
    EXPECT_EXIT(makeChannel("awgn", li::Config::fromString("seed=-1")),
                testing::ExitedWithCode(1), "'seed'");
}

TEST(ChannelConfigDeath, InterfererBinOutsideTheBandIsFatal)
{
    for (const char *bin : {"interferer_bin=40", "interferer_bin=-27"}) {
        EXPECT_EXIT(makeChannel("interference", li::Config::fromString(bin)),
                    testing::ExitedWithCode(1),
                    "fatal: interferer_bin -?[0-9]+ out of range")
            << bin;
    }
}
