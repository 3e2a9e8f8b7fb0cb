/**
 * @file
 * Multi-user network simulator tests: the AR(1) fading process is
 * replayable and Doppler-parameterized, NetworkSpec round-trips
 * through li::Config, and -- the acceptance bar -- a 16-user sweep
 * is bit-identical at 1, 2 and 8 worker threads with per-user
 * goodput/latency statistics exposed.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <complex>

#include "channel/fading.hh"
#include "sim/network_sim.hh"

using namespace wilis;
using namespace wilis::sim;

// ---------------------------------------------------- AR(1) fading

TEST(Ar1Fading, GainSequenceIsReplayable)
{
    channel::Ar1FadingChannel a({.awgn = {.seed = 42}});
    channel::Ar1FadingChannel b({.awgn = {.seed = 42}});

    // Forward, backward and repeated queries all agree between
    // instances (the gain is a pure function of (seed, slot)).
    for (std::uint64_t n : {0ull, 3ull, 7ull, 2ull, 7ull, 0ull})
        EXPECT_EQ(a.gain(n, 0), b.gain(n, 0)) << "slot " << n;

    channel::Ar1FadingChannel c({.awgn = {.seed = 43}});
    EXPECT_NE(a.gain(5, 0), c.gain(5, 0))
        << "different seeds, different fading";
}

TEST(Ar1Fading, BlockFadingHoldsGainWithinASlot)
{
    channel::Ar1FadingChannel chan({.awgn = {.seed = 7}});
    EXPECT_EQ(chan.gain(4, 0), chan.gain(4, 13));
    EXPECT_NE(chan.gain(4, 0), chan.gain(5, 0));
}

TEST(Ar1Fading, DopplerControlsCorrelation)
{
    // rho = J0(2 pi fd T): slow fading is heavily correlated, fast
    // fading decorrelates.
    channel::Ar1FadingChannel slow({.dopplerHz = 5.0});
    channel::Ar1FadingChannel fast({.dopplerHz = 200.0});
    EXPECT_GT(slow.rho(), 0.99);
    EXPECT_LT(fast.rho(), slow.rho());
    EXPECT_GE(fast.rho(), 0.0);
    EXPECT_LT(slow.rho(), 1.0);

    // Unit mean power: E[|h|^2] ~ 1 over a long stretch.
    double acc = 0.0;
    const int n = 4000;
    for (int i = 0; i < n; ++i)
        acc += std::norm(fast.gain(static_cast<std::uint64_t>(i), 0));
    EXPECT_NEAR(acc / n, 1.0, 0.15);
}

TEST(Ar1FadingDeath, CommonNoiseIsNotAnAr1Setting)
{
    // ar1 declares snr_db, seed and threads only; the AWGN block's
    // fourth field must not switch on a mode the key list omits.
    EXPECT_DEATH(
        channel::Ar1FadingChannel({.awgn = {.commonNoise = true}}),
        "ar1 has no common-noise mode");
}

// ----------------------------------------------------- NetworkSpec

TEST(NetworkSpec, ConfigRoundTrips)
{
    NetworkSpec s;
    s.name = "rt";
    s.numUsers = 5;
    s.arrivalModel = ArrivalModel::Bernoulli;
    s.arrivalProb = 0.25;
    s.dopplerHz = 77.0;
    s.snrSpreadDb = 4.0;
    s.frameIntervalUs = 1500.0;
    s.arqMode = mac::ArqMode::StopAndWait;
    s.arqWindow = 3;
    s.arqMaxAttempts = 5;
    s.ackDelaySlots = 2;
    s.pberLo = 1e-7;
    s.pberHi = 1e-3;
    s.seed = 0xFEEDull;
    s.link.rate = 3;
    s.link.payloadBits = 640;

    NetworkSpec t = NetworkSpec::fromConfig(s.toConfig());
    EXPECT_EQ(t.name, s.name);
    EXPECT_EQ(t.numUsers, s.numUsers);
    EXPECT_EQ(t.arrivalModel, s.arrivalModel);
    EXPECT_DOUBLE_EQ(t.arrivalProb, s.arrivalProb);
    EXPECT_DOUBLE_EQ(t.dopplerHz, s.dopplerHz);
    EXPECT_DOUBLE_EQ(t.snrSpreadDb, s.snrSpreadDb);
    EXPECT_DOUBLE_EQ(t.frameIntervalUs, s.frameIntervalUs);
    EXPECT_EQ(t.arqMode, s.arqMode);
    EXPECT_EQ(t.arqWindow, s.arqWindow);
    EXPECT_EQ(t.arqMaxAttempts, s.arqMaxAttempts);
    EXPECT_EQ(t.ackDelaySlots, s.ackDelaySlots);
    EXPECT_DOUBLE_EQ(t.pberLo, s.pberLo);
    EXPECT_DOUBLE_EQ(t.pberHi, s.pberHi);
    EXPECT_EQ(t.seed, s.seed);
    EXPECT_EQ(t.link.rate, s.link.rate);
    EXPECT_EQ(t.link.payloadBits, s.link.payloadBits);
}

TEST(NetworkSpec, ShorthandKeysReachTheLinkTemplate)
{
    NetworkSpec s = NetworkSpec::fromConfig(li::Config::fromString(
        "users=4,rate=5,snr_db=21,payload_bits=256,arq=stopwait"));
    EXPECT_EQ(s.numUsers, 4);
    EXPECT_EQ(s.link.rate, 5);
    EXPECT_DOUBLE_EQ(s.link.snrDb(), 21.0);
    EXPECT_EQ(s.link.payloadBits, 256u);
    EXPECT_EQ(s.arqMode, mac::ArqMode::StopAndWait);
}

// ------------------------------------------------------ NetworkSim

namespace {

NetworkSpec
testCell(int users)
{
    NetworkSpec s = networkPreset("cell-16");
    s.numUsers = users;
    s.link.payloadBits = 400; // keep the PHY cost test-sized
    s.dopplerHz = 60.0;
    s.snrSpreadDb = 8.0;
    s.seed = 0xBEEF;
    return s;
}

void
expectSameStats(const UserStats &a, const UserStats &b, int user)
{
    EXPECT_EQ(a.framesSent, b.framesSent) << "user " << user;
    EXPECT_EQ(a.framesOk, b.framesOk) << "user " << user;
    EXPECT_EQ(a.stalledSlots, b.stalledSlots) << "user " << user;
    EXPECT_EQ(a.retransmissions, b.retransmissions)
        << "user " << user;
    EXPECT_EQ(a.delivered, b.delivered) << "user " << user;
    EXPECT_EQ(a.dropped, b.dropped) << "user " << user;
    EXPECT_EQ(a.goodputBits, b.goodputBits) << "user " << user;
    EXPECT_EQ(a.latencySlots.count(), b.latencySlots.count())
        << "user " << user;
    // Per-user statistics accumulate sequentially on one worker, so
    // even the floating-point moments are bit-identical.
    EXPECT_EQ(a.latencySlots.mean(), b.latencySlots.mean())
        << "user " << user;
    EXPECT_EQ(a.latencySlots.variance(), b.latencySlots.variance())
        << "user " << user;
    EXPECT_DOUBLE_EQ(a.snrOffsetDb, b.snrOffsetDb) << "user " << user;
    for (int bin = 0; bin < a.latencyHist.numBins(); ++bin)
        EXPECT_EQ(a.latencyHist.count(bin), b.latencyHist.count(bin))
            << "user " << user << " latency bin " << bin;
    for (int bin = 0; bin < a.rateHist.numBins(); ++bin)
        EXPECT_EQ(a.rateHist.count(bin), b.rateHist.count(bin))
            << "user " << user << " rate bin " << bin;
    for (int bin = 0; bin < a.attemptsHist.numBins(); ++bin)
        EXPECT_EQ(a.attemptsHist.count(bin),
                  b.attemptsHist.count(bin))
            << "user " << user << " attempts bin " << bin;
}

} // namespace

TEST(NetworkSim, SixteenUserSweepBitIdenticalAt1_2_8Threads)
{
    const std::uint64_t slots = 40;
    NetworkSpec spec = testCell(16);

    NetworkSim sim(spec);
    NetworkResult t1 = sim.run(slots, 1);
    NetworkResult t2 = sim.run(slots, 2);
    NetworkResult t8 = sim.run(slots, 8);

    ASSERT_EQ(t1.users.size(), 16u);
    ASSERT_EQ(t2.users.size(), 16u);
    ASSERT_EQ(t8.users.size(), 16u);
    for (int u = 0; u < 16; ++u) {
        expectSameStats(t1.users[static_cast<size_t>(u)],
                        t2.users[static_cast<size_t>(u)], u);
        expectSameStats(t1.users[static_cast<size_t>(u)],
                        t8.users[static_cast<size_t>(u)], u);
    }
    expectSameStats(t1.aggregate, t2.aggregate, -1);
    expectSameStats(t1.aggregate, t8.aggregate, -1);

    // Per-user goodput and latency statistics are exposed and
    // populated: every full-buffer user transmits every slot and
    // delivers most of its frames.
    for (const UserStats &u : t1.users) {
        EXPECT_EQ(u.framesSent + u.stalledSlots, slots);
        EXPECT_GT(u.delivered, 0u);
        EXPECT_GT(u.goodputBits, 0u);
        EXPECT_GT(u.goodputMbps(slots, spec.frameIntervalUs), 0.0);
        EXPECT_EQ(u.latencySlots.count(), u.delivered);
        EXPECT_EQ(u.latencyHist.total(), u.delivered);
        EXPECT_EQ(u.rateHist.total(), u.framesSent);
    }
    // The near/far SNR spread differentiates users.
    EXPECT_NE(t1.users[0].snrOffsetDb, t1.users[1].snrOffsetDb);
    // Aggregate bookkeeping is the exact user sum.
    std::uint64_t goodput = 0;
    for (const UserStats &u : t1.users)
        goodput += u.goodputBits;
    EXPECT_EQ(t1.aggregate.goodputBits, goodput);
    EXPECT_GT(t1.aggregateGoodputMbps(), 0.0);
}

TEST(NetworkSim, SelectiveRepeatOutperformsStopAndWait)
{
    // At a 2-slot ack delay, stop-and-wait can use at most every
    // other slot while selective repeat keeps the pipe full; on a
    // clean channel the goodput gap must show.
    NetworkSpec sr = testCell(4);
    sr.snrSpreadDb = 0.0;
    sr.link.channelCfg = li::Config::fromString("snr_db=30");
    sr.dopplerHz = 5.0;
    sr.ackDelaySlots = 2;
    sr.arqMode = mac::ArqMode::SelectiveRepeat;

    NetworkSpec sw = sr;
    sw.arqMode = mac::ArqMode::StopAndWait;

    NetworkResult r_sr = NetworkSim(sr).run(30, 2);
    NetworkResult r_sw = NetworkSim(sw).run(30, 2);
    EXPECT_GT(r_sr.aggregate.goodputBits,
              r_sw.aggregate.goodputBits);
    EXPECT_GT(r_sw.aggregate.stalledSlots, 0u)
        << "stop-and-wait must idle while acks are in flight";
}

TEST(NetworkSim, BernoulliArrivalsThinTheTraffic)
{
    NetworkSpec full = testCell(4);
    NetworkSpec thin = full;
    thin.arrivalModel = ArrivalModel::Bernoulli;
    thin.arrivalProb = 0.3;

    const std::uint64_t slots = 30;
    NetworkResult r_full = NetworkSim(full).run(slots, 2);
    NetworkResult r_thin = NetworkSim(thin).run(slots, 2);
    EXPECT_EQ(r_full.aggregate.framesSent +
                  r_full.aggregate.stalledSlots,
              slots * 4);
    EXPECT_LT(r_thin.aggregate.framesSent,
              r_full.aggregate.framesSent / 2);
    EXPECT_GT(r_thin.aggregate.framesSent, 0u);
}

TEST(NetworkSim, RateAdaptationReactsToTheSnrSpread)
{
    // With an 8 dB near/far spread, strong and weak users must not
    // end up with the same rate usage: the aggregate rate histogram
    // has to cover more than one rate.
    NetworkSpec spec = testCell(8);
    NetworkResult r = NetworkSim(spec).run(40, 2);
    int rates_used = 0;
    for (int b = 0; b < r.aggregate.rateHist.numBins(); ++b)
        rates_used += r.aggregate.rateHist.count(b) > 0 ? 1 : 0;
    EXPECT_GT(rates_used, 1);
}
