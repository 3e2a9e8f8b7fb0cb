/**
 * @file
 * MAC layer tests: SoftRate controller dynamics, the optimal-rate
 * oracle's replay consistency, ARQ bookkeeping, and PPR flagging.
 */

#include <gtest/gtest.h>

#include "mac/oracle.hh"
#include "mac/ppr.hh"
#include "mac/softrate.hh"
#include "softphy/llr_ber.hh"

using namespace wilis;
using namespace wilis::mac;

TEST(SoftRate, StepsDownOnHighPber)
{
    SoftRateMac::Config cfg;
    cfg.initialRate = 5;
    SoftRateMac mac(cfg);
    EXPECT_EQ(mac.currentRate(), 5);
    EXPECT_EQ(mac.onFeedback(1e-3), 4);
    EXPECT_EQ(mac.onFeedback(1e-2), 3);
}

TEST(SoftRate, StepsUpOnLowPber)
{
    SoftRateMac::Config cfg;
    cfg.initialRate = 2;
    SoftRateMac mac(cfg);
    EXPECT_EQ(mac.onFeedback(1e-9), 3);
    EXPECT_EQ(mac.onFeedback(1e-8), 4);
}

TEST(SoftRate, HoldsInsideOperatingRange)
{
    SoftRateMac::Config cfg;
    cfg.initialRate = 4;
    SoftRateMac mac(cfg);
    EXPECT_EQ(mac.onFeedback(1e-6), 4); // within [1e-7, 1e-5]
    EXPECT_EQ(mac.onFeedback(5e-6), 4);
    EXPECT_EQ(mac.onFeedback(2e-7), 4);
}

TEST(SoftRate, ClampsAtRateBounds)
{
    SoftRateMac::Config cfg;
    cfg.initialRate = 0;
    SoftRateMac mac(cfg);
    EXPECT_EQ(mac.onFeedback(0.5), 0); // cannot go below 0
    cfg.initialRate = 7;
    SoftRateMac top(cfg);
    EXPECT_EQ(top.onFeedback(1e-12), 7); // cannot exceed 7
}

TEST(SelectionStats, ClassifyAndPercentages)
{
    SelectionStats s;
    s.record(classifySelection(3, 4)); // under
    s.record(classifySelection(4, 4)); // accurate
    s.record(classifySelection(4, 4)); // accurate
    s.record(classifySelection(5, 4)); // over
    EXPECT_EQ(s.total(), 4u);
    EXPECT_DOUBLE_EQ(s.underPct(), 25.0);
    EXPECT_DOUBLE_EQ(s.accuratePct(), 50.0);
    EXPECT_DOUBLE_EQ(s.overPct(), 25.0);
}

TEST(Oracle, HighSnrPrefersTopRateLowSnrPrefersRobust)
{
    sim::ScenarioSpec base;
    base.rx.decoder = "viterbi";

    base.channelCfg = li::Config::fromString("snr_db=35,seed=21");
    RateOracle high(base);
    EXPECT_EQ(high.optimalRate(500, 0), 7);

    base.channelCfg = li::Config::fromString("snr_db=2,seed=21");
    RateOracle low(base);
    int r = low.optimalRate(500, 0);
    EXPECT_GE(r, -1);
    // At 2 dB only the robust low-order modulations survive.
    EXPECT_LE(r, 3);
}

TEST(Oracle, ReplayIsConsistent)
{
    sim::ScenarioSpec base;
    base.rx.decoder = "viterbi";
    base.channelCfg = li::Config::fromString("snr_db=11,seed=4");
    RateOracle oracle(base);
    for (std::uint64_t p = 0; p < 5; ++p)
        EXPECT_EQ(oracle.optimalRate(1000, p),
                  oracle.optimalRate(1000, p))
            << "packet " << p;
}

TEST(Oracle, OptimalRateImpliesSuccessAtThatRateAndBelowIsUsual)
{
    sim::ScenarioSpec base;
    base.rx.decoder = "viterbi";
    base.channelCfg = li::Config::fromString("snr_db=12,seed=8");
    RateOracle oracle(base);
    for (std::uint64_t p = 0; p < 8; ++p) {
        int r = oracle.optimalRate(800, p);
        if (r < 0)
            continue;
        EXPECT_TRUE(oracle.runFrameAtRate(r, 800, p).ok);
        if (r < phy::kNumRates - 1) {
            // By definition every rate above the optimum fails.
            EXPECT_FALSE(oracle.runFrameAtRate(r + 1, 800, p).ok);
        }
    }
}

TEST(Ppr, FlagsLowConfidenceChunksAndCatchesErrors)
{
    softphy::BerEstimator est;
    est.setTable(phy::Modulation::QPSK,
                 softphy::BerTable::fromScale(0.1, 100.0));
    PprPolicy ppr(&est, 1e-3, 4);

    // 12 bits in 3 chunks; chunk 1 has a low-confidence wrong bit.
    std::vector<SoftDecision> soft(12);
    BitVec ref(12, 0);
    for (size_t i = 0; i < 12; ++i) {
        soft[i].bit = 0;
        soft[i].llr = 95.0; // confident
    }
    soft[5].bit = 1; // wrong...
    soft[5].llr = 2.0; // ...and suspicious
    PprOutcome out = ppr.evaluate(phy::Modulation::QPSK, soft, ref);
    EXPECT_EQ(out.totalBits, 12u);
    EXPECT_EQ(out.flaggedBits, 4u); // whole chunk 1
    EXPECT_EQ(out.caughtErrors, 1u);
    EXPECT_EQ(out.missedErrors, 0u);
    EXPECT_TRUE(out.recoverable());
    EXPECT_NEAR(out.retransmitFraction(), 4.0 / 12.0, 1e-12);
}

TEST(Ppr, MissesConfidentErrors)
{
    softphy::BerEstimator est;
    est.setTable(phy::Modulation::QPSK,
                 softphy::BerTable::fromScale(0.1, 100.0));
    PprPolicy ppr(&est, 1e-3, 4);

    std::vector<SoftDecision> soft(8);
    BitVec ref(8, 0);
    for (auto &d : soft) {
        d.bit = 0;
        d.llr = 95.0;
    }
    soft[2].bit = 1; // wrong but confident: a miss
    PprOutcome out = ppr.evaluate(phy::Modulation::QPSK, soft, ref);
    EXPECT_EQ(out.missedErrors, 1u);
    EXPECT_FALSE(out.recoverable());
}
