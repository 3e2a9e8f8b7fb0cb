/**
 * @file
 * Isolation tests for the two MAC building blocks the network
 * simulator composes: the SoftRate controller (previously only
 * exercised through the Figure 7 experiment) and the sequence-number
 * ARQ state machine. SoftRate must converge on a step-change SNR
 * trace; the ARQ must deliver in order under forced frame loss in
 * both stop-and-wait and selective-repeat modes.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <vector>

#include "mac/arq.hh"
#include "mac/softrate.hh"

using namespace wilis;
using mac::Arq;
using mac::ArqMode;

namespace {

/**
 * Synthetic per-packet BER model for a rate at a given SNR: each
 * rate needs ~3 dB more SNR per step, with a steep waterfall.
 * Monotonic in both arguments, which is all the controller relies
 * on.
 */
double
syntheticPber(int rate, double snr_db)
{
    double margin_db = snr_db - 3.0 * rate;
    return std::min(0.5, std::pow(10.0, -margin_db));
}

/** Drive the controller for @p steps packets at a fixed SNR. */
phy::RateIndex
settle(mac::SoftRateMac &ctl, double snr_db, int steps)
{
    phy::RateIndex r = ctl.currentRate();
    for (int i = 0; i < steps; ++i)
        r = ctl.onFeedback(syntheticPber(ctl.currentRate(), snr_db));
    return r;
}

} // namespace

TEST(SoftRate, ConvergesOnStepChangeSnrTrace)
{
    mac::SoftRateMac::Config cfg;
    cfg.pberLo = 1e-6;
    cfg.pberHi = 1e-4;
    cfg.initialRate = 4;
    mac::SoftRateMac ctl(cfg);

    // High SNR: the controller climbs until the operating range
    // holds; with the synthetic model every rate is clean at 25 dB.
    phy::RateIndex high = settle(ctl, 25.0, 20);
    EXPECT_EQ(high, phy::kNumRates - 1);

    // Step down to 8 dB: rates above ~2 now blow through pberHi, so
    // the controller must descend and settle without oscillating.
    phy::RateIndex low = settle(ctl, 8.0, 20);
    EXPECT_LT(low, 4);
    phy::RateIndex settled = low;
    for (int i = 0; i < 10; ++i) {
        phy::RateIndex r =
            ctl.onFeedback(syntheticPber(ctl.currentRate(), 8.0));
        EXPECT_LE(std::abs(r - settled), 1) << "oscillation";
    }

    // Step back up: re-converges to the top.
    EXPECT_EQ(settle(ctl, 25.0, 20), phy::kNumRates - 1);
}

TEST(SoftRate, StaysPutInsideOperatingRange)
{
    mac::SoftRateMac::Config cfg;
    cfg.pberLo = 1e-6;
    cfg.pberHi = 1e-4;
    cfg.initialRate = 3;
    mac::SoftRateMac ctl(cfg);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(ctl.onFeedback(1e-5), 3);
    ctl.reset();
    EXPECT_EQ(ctl.currentRate(), 3);
}

TEST(SoftRate, ClampsAtRateTableEdges)
{
    mac::SoftRateMac ctl; // default: initial rate 0
    EXPECT_EQ(ctl.onFeedback(1.0), 0) << "cannot go below rate 0";
    for (int i = 0; i < 2 * phy::kNumRates; ++i)
        ctl.onFeedback(0.0);
    EXPECT_EQ(ctl.currentRate(), phy::kNumRates - 1);
    EXPECT_EQ(ctl.onFeedback(0.0), phy::kNumRates - 1)
        << "cannot go above the top rate";
}

namespace {

/**
 * Drive an Arq over @p slots with decode outcomes supplied by
 * @p decide(seq, attempt) (attempt is 1-based); returns the
 * deliveries in emission order.
 */
std::vector<Arq::Delivery>
driveArq(Arq &arq, std::uint64_t slots,
         const std::function<bool(std::uint64_t, int)> &decide)
{
    std::vector<Arq::Delivery> out;
    std::vector<int> attempts;
    for (std::uint64_t t = 0; t < slots; ++t) {
        arq.tick(t, out);
        std::uint64_t seq = 0;
        if (!arq.nextToSend(t, seq))
            continue;
        if (attempts.size() <= seq)
            attempts.resize(static_cast<size_t>(seq) + 1, 0);
        int attempt = ++attempts[static_cast<size_t>(seq)];
        arq.onSendResult(seq, decide(seq, attempt));
    }
    // Drain the horizon.
    for (std::uint64_t t = slots; t <= slots + 8; ++t)
        arq.tick(t, out);
    return out;
}

bool
inSequenceOrder(const std::vector<Arq::Delivery> &ds)
{
    for (size_t i = 0; i < ds.size(); ++i)
        if (ds[i].seq != i)
            return false;
    return true;
}

} // namespace

TEST(Arq, StopAndWaitCleanChannelDeliversEverySlot)
{
    Arq::Config cfg;
    cfg.mode = ArqMode::StopAndWait;
    cfg.ackDelaySlots = 1;
    Arq arq(cfg);
    EXPECT_EQ(arq.windowSize(), 1);

    auto ds = driveArq(arq, 20, [](std::uint64_t, int) {
        return true;
    });
    ASSERT_EQ(ds.size(), 20u);
    EXPECT_TRUE(inSequenceOrder(ds));
    for (const auto &d : ds) {
        EXPECT_EQ(d.attempts, 1);
        EXPECT_EQ(d.latencySlots, 1u);
        EXPECT_FALSE(d.dropped);
    }
    EXPECT_EQ(arq.retransmissions(), 0u);
}

TEST(Arq, StopAndWaitRetransmitsUntilClean)
{
    Arq::Config cfg;
    cfg.mode = ArqMode::StopAndWait;
    cfg.ackDelaySlots = 1;
    Arq arq(cfg);

    // Every third frame fails on its first two attempts.
    auto ds = driveArq(arq, 40, [](std::uint64_t seq, int attempt) {
        return seq % 3 != 0 || attempt > 2;
    });
    ASSERT_GT(ds.size(), 6u);
    EXPECT_TRUE(inSequenceOrder(ds));
    for (const auto &d : ds) {
        EXPECT_FALSE(d.dropped);
        if (d.seq % 3 == 0) {
            EXPECT_EQ(d.attempts, 3);
            EXPECT_EQ(d.latencySlots, 3u);
        } else {
            EXPECT_EQ(d.attempts, 1);
            EXPECT_EQ(d.latencySlots, 1u);
        }
    }
    EXPECT_EQ(arq.retransmissions(),
              2 * ((ds.back().seq / 3) + 1));
}

TEST(Arq, StopAndWaitIdlesWhileAckIsInFlight)
{
    Arq::Config cfg;
    cfg.mode = ArqMode::StopAndWait;
    cfg.ackDelaySlots = 3;
    Arq arq(cfg);

    auto ds = driveArq(arq, 30, [](std::uint64_t, int) {
        return true;
    });
    // One frame per (1 + ackDelay - 1) = 3 slots.
    EXPECT_EQ(ds.size(), 10u);
    EXPECT_TRUE(inSequenceOrder(ds));
}

TEST(Arq, SelectiveRepeatFillsThePipe)
{
    Arq::Config cfg;
    cfg.mode = ArqMode::SelectiveRepeat;
    cfg.window = 8;
    cfg.ackDelaySlots = 3;
    Arq arq(cfg);

    auto ds = driveArq(arq, 30, [](std::uint64_t, int) {
        return true;
    });
    // Unlike stop-and-wait at the same ack delay, every slot carries
    // a (new) frame.
    EXPECT_EQ(ds.size(), 30u);
    EXPECT_TRUE(inSequenceOrder(ds));
    for (const auto &d : ds)
        EXPECT_EQ(d.latencySlots, 3u);
}

TEST(Arq, SelectiveRepeatDeliversInOrderUnderForcedLoss)
{
    Arq::Config cfg;
    cfg.mode = ArqMode::SelectiveRepeat;
    cfg.window = 4;
    cfg.ackDelaySlots = 2;
    Arq arq(cfg);

    // Deterministic loss: every fourth frame needs two attempts.
    auto ds = driveArq(arq, 60, [](std::uint64_t seq, int attempt) {
        return seq % 4 != 1 || attempt >= 2;
    });
    ASSERT_GT(ds.size(), 20u);
    EXPECT_TRUE(inSequenceOrder(ds)) << "selective repeat must "
                                        "buffer out-of-order "
                                        "successes";
    for (const auto &d : ds) {
        EXPECT_FALSE(d.dropped);
        EXPECT_EQ(d.attempts, d.seq % 4 == 1 ? 2 : 1);
        // Frames behind a retransmission inherit queueing latency,
        // so only a lower bound is universal.
        EXPECT_GE(d.latencySlots, 2u);
    }
    EXPECT_GT(arq.retransmissions(), 0u);
}

TEST(Arq, DropsAfterRetryBudgetAndMovesOn)
{
    Arq::Config cfg;
    cfg.mode = ArqMode::SelectiveRepeat;
    cfg.window = 4;
    cfg.maxAttempts = 3;
    cfg.ackDelaySlots = 1;
    Arq arq(cfg);

    // Frame 2 never decodes; everything else is clean.
    auto ds = driveArq(arq, 40, [](std::uint64_t seq, int) {
        return seq != 2;
    });
    ASSERT_GT(ds.size(), 5u);
    EXPECT_TRUE(inSequenceOrder(ds));
    for (const auto &d : ds) {
        if (d.seq == 2) {
            EXPECT_TRUE(d.dropped);
            EXPECT_EQ(d.attempts, 3);
        } else {
            EXPECT_FALSE(d.dropped);
        }
    }
}

TEST(Arq, ImmediateFeedbackMode)
{
    Arq::Config cfg;
    cfg.mode = ArqMode::StopAndWait;
    cfg.ackDelaySlots = 0;
    Arq arq(cfg);

    auto ds = driveArq(arq, 10, [](std::uint64_t seq, int) {
        return seq != 0;
    });
    // seq 0 retransmits until... it never succeeds? decide says
    // seq != 0 -> seq 0 always fails; budget 8 -> dropped, rest ok.
    ASSERT_GT(ds.size(), 2u);
    EXPECT_TRUE(inSequenceOrder(ds));
    EXPECT_TRUE(ds[0].dropped);
    EXPECT_EQ(ds[0].attempts, 8);
    EXPECT_FALSE(ds[1].dropped);
}
