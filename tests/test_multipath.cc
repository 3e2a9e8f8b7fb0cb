/**
 * @file
 * Multipath channel tests: frequency selectivity, cyclic-prefix
 * protection (per-bin equalized loopback is exact at high SNR),
 * energy conservation, batch/streaming agreement, and end-to-end
 * decode behaviour.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "channel/multipath.hh"
#include "common/stats.hh"
#include "phy/ofdm_symbol.hh"
#include "sim/sweep.hh"
#include "sim/testbench.hh"

using namespace wilis;
using namespace wilis::channel;

TEST(Multipath, BinGainsVaryAcrossSubcarriers)
{
    MultipathChannel ch({.awgn = {.snrDb = 100, .seed = 3}});
    SampleVec h(64);
    ch.binGains(0, 0, h);
    double min_mag = 1e18;
    double max_mag = 0.0;
    for (int bin = 0; bin < 64; ++bin) {
        double m = std::abs(h[static_cast<size_t>(bin)]);
        min_mag = std::min(min_mag, m);
        max_mag = std::max(max_mag, m);
    }
    // Frequency-selective: a real spread between best and worst bin.
    EXPECT_GT(max_mag / (min_mag + 1e-12), 1.5);
}

TEST(Multipath, SingleTapIsFlat)
{
    MultipathChannel ch({.awgn = {.snrDb = 100, .seed = 3}, .numTaps = 1});
    SampleVec h(64);
    ch.binGains(0, 0, h);
    for (int bin = 0; bin < 64; ++bin)
        EXPECT_LT(std::abs(h[static_cast<size_t>(bin)] - h[0]), 1e-12);
}

TEST(Multipath, UnitMeanPower)
{
    MultipathChannel ch({.awgn = {.snrDb = 100, .seed = 5}});
    RunningStats pwr;
    SampleVec h(64);
    for (std::uint64_t p = 0; p < 4000; ++p) {
        ch.binGains(p, 0, h);
        for (int bin = 0; bin < 64; bin += 8)
            pwr.add(std::norm(h[static_cast<size_t>(bin)]));
    }
    EXPECT_NEAR(pwr.mean(), 1.0, 0.12);
}

TEST(Multipath, BatchAndStreamingAgree)
{
    const MultipathChannel::Params p{.awgn = {.snrDb = 10, .seed = 7}};
    MultipathChannel batch(p);
    MultipathChannel stream(p);

    SplitMix64 rng(4);
    SampleVec samples(400);
    for (auto &s : samples)
        s = Sample(rng.nextDouble() - 0.5, rng.nextDouble() - 0.5);

    SampleVec expect = samples;
    batch.apply(expect, 9);
    for (size_t i = 0; i < samples.size(); ++i) {
        Sample got = stream.impairSample(samples[i], 9, i);
        ASSERT_LT(std::abs(got - expect[i]), 1e-12) << "sample " << i;
    }
}

TEST(MultipathDeath, OutOfOrderStreamingPanics)
{
    MultipathChannel ch({.awgn = {.snrDb = 10, .seed = 7}});
    ch.impairSample(Sample(1, 0), 0, 0);
    EXPECT_DEATH(ch.impairSample(Sample(1, 0), 0, 5), "out of order");
}

TEST(Multipath, HighSnrLoopbackWithPerBinEqualization)
{
    // CP absorbs the delay spread and perfect per-bin CSI undoes the
    // frequency selectivity: essentially error-free at 45 dB.
    sim::ScenarioSpec cfg;
    cfg.rate = 4;
    cfg.rx.decoder = "bcjr";
    cfg.channel = "multipath";
    cfg.channelCfg = li::Config::fromString(
        "snr_db=45,num_taps=4,delay_spread=3,seed=11");
    sim::Testbench tb(cfg);
    int ok = 0;
    for (std::uint64_t p = 0; p < 10; ++p)
        ok += tb.runFrame(1000, p).ok;
    EXPECT_GE(ok, 9);
}

TEST(Multipath, ModerateSnrDecodes)
{
    sim::ScenarioSpec cfg;
    cfg.rate = 2;
    cfg.rx.decoder = "bcjr";
    cfg.channel = "multipath";
    cfg.channelCfg = li::Config::fromString(
        "snr_db=14,num_taps=4,delay_spread=3,seed=13");
    ErrorStats s = sim::measureBer(cfg.withPayloadBits(1000), 30, 2);
    EXPECT_LT(s.ber(), 0.05);
    // And it is harder than flat fading at the same mean SNR only in
    // uncoded terms; with interleaving + coding it decodes.
    EXPECT_GT(s.bits, 0u);
}

TEST(Multipath, CsiWeightingHelpsOnSelectiveChannels)
{
    // Zero-forcing alone amplifies noise on notched subcarriers;
    // weighting metrics by |H| restores most of the loss. On a flat
    // AWGN channel the weight is 1 and nothing changes.
    sim::ScenarioSpec plain;
    plain.rate = 2;
    plain.rx.decoder = "bcjr";
    plain.channel = "multipath";
    plain.channelCfg = li::Config::fromString(
        "snr_db=10,num_taps=4,delay_spread=3,seed=21");
    sim::ScenarioSpec weighted = plain;
    weighted.rx.applyCsiWeight = true;

    ErrorStats zf = sim::measureBer(plain.withPayloadBits(1000), 40, 2);
    ErrorStats mf = sim::measureBer(weighted.withPayloadBits(1000), 40, 2);
    ASSERT_GT(zf.errors, 50u) << "need a lossy operating point";
    EXPECT_LT(mf.ber(), 0.5 * zf.ber());

    // Flat channel: weighting is a no-op.
    sim::ScenarioSpec awgn;
    awgn.rate = 2;
    awgn.rx.decoder = "bcjr";
    awgn.channelCfg = li::Config::fromString("snr_db=4,seed=8");
    sim::ScenarioSpec awgn_w = awgn;
    awgn_w.rx.applyCsiWeight = true;
    ErrorStats a = sim::measureBer(awgn.withPayloadBits(1000), 20, 2);
    ErrorStats b = sim::measureBer(awgn_w.withPayloadBits(1000), 20, 2);
    EXPECT_EQ(a.errors, b.errors);
}

TEST(Multipath, RegistryCreates)
{
    auto ch = makeChannel("multipath",
                          li::Config::fromString("snr_db=12,seed=1"));
    EXPECT_EQ(ch->name(), "multipath");
}
