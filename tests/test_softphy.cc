/**
 * @file
 * SoftPHY tests: eq. 4/5 math, calibrator fitting on synthetic data,
 * the two-level lookup estimator, and end-to-end estimator quality
 * (predicted per-packet BER tracks actual BER).
 */

#include <gtest/gtest.h>

#include <cmath>

#include "common/random.hh"
#include "sim/testbench.hh"
#include "softphy/ber_estimator.hh"
#include "softphy/calibration.hh"
#include "softphy/llr_ber.hh"
#include "softphy/softphy.hh"

using namespace wilis;
using namespace wilis::softphy;

TEST(LlrBer, Equation4Endpoints)
{
    EXPECT_NEAR(berFromTrueLlr(0.0), 0.5, 1e-12);
    EXPECT_LT(berFromTrueLlr(20.0), 1e-8);
    EXPECT_GT(berFromTrueLlr(-5.0), 0.99);
    // Monotone decreasing.
    for (double l = -5.0; l < 20.0; l += 0.5)
        EXPECT_GT(berFromTrueLlr(l), berFromTrueLlr(l + 0.5));
}

TEST(LlrBer, RoundTrip)
{
    for (double ber : {0.4, 0.1, 1e-3, 1e-6}) {
        EXPECT_NEAR(berFromTrueLlr(trueLlrFromBer(ber)), ber,
                    ber * 1e-9);
    }
}

TEST(LlrBer, Equation5Scaling)
{
    // Doubling the combined scale doubles the effective LLR.
    EXPECT_NEAR(trueLlrFromHint(10.0, 0.5), 5.0, 1e-12);
    EXPECT_NEAR(berFromHint(10.0, 0.5), berFromTrueLlr(5.0), 1e-12);
}

TEST(Calibrator, RecoversSyntheticScale)
{
    // Generate (hint, error) pairs from a known BER(hint) law and
    // verify the fitted scale.
    const double true_scale = 0.031;
    LlrCalibrator cal(600.0, 64);
    SplitMix64 rng(404);
    for (int i = 0; i < 4000000; ++i) {
        double hint = rng.nextDouble() * 500.0;
        double ber = berFromHint(hint, true_scale);
        cal.record(hint, rng.nextDouble() < ber);
    }
    double fit = cal.fitScale();
    EXPECT_NEAR(fit, true_scale, 0.1 * true_scale);
}

TEST(Calibrator, CurveIsLogLinear)
{
    // The measured curve from a synthetic eq. 4 law must be
    // log-linear in the hint (the Figure 5 shape).
    const double scale = 0.05;
    LlrCalibrator cal(400.0, 32);
    SplitMix64 rng(77);
    for (int i = 0; i < 3000000; ++i) {
        double hint = rng.nextDouble() * 390.0;
        cal.record(hint, rng.nextDouble() < berFromHint(hint, scale));
    }
    auto curve = cal.curve();
    ASSERT_GT(curve.size(), 10u);
    // ln(ber) vs llr slope between the first and last bins that have
    // statistically solid error counts ~ -scale.
    size_t lo_i = curve.size();
    size_t hi_i = 0;
    for (size_t i = 0; i < curve.size(); ++i) {
        if (curve[i].errors >= 100) {
            lo_i = std::min(lo_i, i);
            hi_i = std::max(hi_i, i);
        }
    }
    ASSERT_LT(lo_i, hi_i);
    const auto &lo = curve[lo_i];
    const auto &hi = curve[hi_i];
    ASSERT_GT(hi.llr - lo.llr, 50.0);
    double slope = (std::log(hi.ber) - std::log(lo.ber)) /
                   (hi.llr - lo.llr);
    EXPECT_NEAR(slope, -scale, 0.15 * scale);
}

TEST(Calibrator, MergeMatchesSequential)
{
    LlrCalibrator a(100.0, 16);
    LlrCalibrator b(100.0, 16);
    LlrCalibrator whole(100.0, 16);
    SplitMix64 rng(1);
    for (int i = 0; i < 10000; ++i) {
        double hint = rng.nextDouble() * 100.0;
        bool err = rng.nextDouble() < 0.1;
        (i % 2 ? a : b).record(hint, err);
        whole.record(hint, err);
    }
    a.merge(b);
    EXPECT_EQ(a.totalObservations(), whole.totalObservations());
    EXPECT_DOUBLE_EQ(a.fitScale(), whole.fitScale());
}

TEST(BerTable, LookupMatchesFormula)
{
    const double scale = 0.02;
    const double llr_max = 500.0;
    BerTable t = BerTable::fromScale(scale, llr_max);
    for (double hint : {1.0, 50.0, 200.0, 499.0}) {
        EXPECT_NEAR(t.lookup(hint), berFromHint(hint, scale),
                    0.1 * berFromHint(hint, scale) + 1e-9)
            << "hint " << hint;
    }
    // Saturation behaviour, including infinity.
    EXPECT_EQ(t.lookup(1e9), t.lookup(llr_max + 1.0));
    EXPECT_EQ(t.lookup(std::numeric_limits<double>::infinity()),
              t.lookup(llr_max + 1.0));
    EXPECT_NEAR(t.lookup(-3.0), 0.5, 0.01);
}

TEST(BerEstimator, TwoLevelDispatch)
{
    BerEstimator est;
    est.setTable(phy::Modulation::QPSK,
                 BerTable::fromScale(0.1, 100.0));
    est.setTable(phy::Modulation::QAM16,
                 BerTable::fromScale(0.01, 100.0));
    EXPECT_TRUE(est.hasTable(phy::Modulation::QPSK));
    EXPECT_FALSE(est.hasTable(phy::Modulation::QAM64));
    // Same hint, different tables -> different BER.
    double qpsk = est.perBitBer(phy::Modulation::QPSK, 50.0);
    double qam16 = est.perBitBer(phy::Modulation::QAM16, 50.0);
    EXPECT_LT(qpsk, qam16);
}

TEST(BerEstimator, PacketBerIsMeanOfPerBit)
{
    BerEstimator est;
    est.setTable(phy::Modulation::QPSK,
                 BerTable::fromScale(0.05, 200.0));
    std::vector<SoftDecision> soft(4);
    soft[0].llr = 10.0;
    soft[1].llr = 50.0;
    soft[2].llr = 100.0;
    soft[3].llr = 150.0;
    double expect = 0.0;
    for (const auto &d : soft)
        expect += est.perBitBer(phy::Modulation::QPSK, d.llr);
    expect /= 4.0;
    EXPECT_NEAR(est.packetBer(phy::Modulation::QPSK, soft), expect,
                1e-12);
}

TEST(BerEstimatorDeath, MissingTablePanics)
{
    BerEstimator est;
    EXPECT_DEATH(est.perBitBer(phy::Modulation::BPSK, 1.0),
                 "no BER table");
}

TEST(SoftPhyCalibration, MidBandSnrsAreOrdered)
{
    EXPECT_LT(midBandSnrDb(phy::Modulation::BPSK),
              midBandSnrDb(phy::Modulation::QPSK));
    EXPECT_LT(midBandSnrDb(phy::Modulation::QPSK),
              midBandSnrDb(phy::Modulation::QAM16));
    EXPECT_LT(midBandSnrDb(phy::Modulation::QAM16),
              midBandSnrDb(phy::Modulation::QAM64));
}

TEST(SoftPhyCalibration, EndToEndQpskBcjr)
{
    // Calibrate QPSK/BCJR on a small run and check that the fitted
    // scale is positive and the estimator orders confidence
    // sensibly.
    CalibrationSpec spec;
    spec.rx.decoder = "bcjr";
    spec.packets = 40;
    spec.payloadBits = 1000;
    spec.threads = 2;

    BerTable table = calibrateTable(phy::Modulation::QPSK, spec);
    // A real fit lands well away from the unit-scale fallback:
    // hint magnitudes run into the hundreds while true LLRs at BER
    // 1e-7 are ~16, so the scale is a few hundredths.
    EXPECT_GT(table.scale(), 0.002);
    EXPECT_LT(table.scale(), 0.5);
    EXPECT_GT(table.lookup(5.0), table.lookup(300.0));
    EXPECT_LT(table.lookup(300.0), 1e-2);
}

TEST(SoftPhyCalibration, PredictedPacketBerTracksActual)
{
    // The Figure 6 property in miniature: over many packets at one
    // SNR, mean predicted PBER is within a small factor of actual.
    CalibrationSpec spec;
    spec.rx.decoder = "bcjr";
    spec.packets = 60;
    spec.payloadBits = 1704;
    spec.threads = 2;
    BerTable table = calibrateTable(phy::Modulation::QAM16, spec);

    BerEstimator est;
    est.setTable(phy::Modulation::QAM16, table);

    auto measure = [&](double snr_db, double &predicted,
                       double &actual) {
        sim::ScenarioSpec cfg;
        cfg.rate = 4; // QAM16 1/2
        cfg.rx = spec.rx;
        cfg.channelCfg = li::Config::fromString(
            "snr_db=" + std::to_string(snr_db) + ",seed=333");
        sim::Testbench tb(cfg);

        predicted = 0.0;
        std::uint64_t errors = 0;
        std::uint64_t bits = 0;
        const int packets = 60;
        for (int p = 0; p < packets; ++p) {
            auto res =
                tb.runFrame(1704, static_cast<std::uint64_t>(p));
            predicted +=
                est.packetBer(phy::Modulation::QAM16, res.rx.soft);
            errors += res.bitErrors;
            bits += res.txPayload.size();
        }
        predicted /= packets;
        actual = static_cast<double>(errors) /
                 static_cast<double>(bits);
    };

    // At the calibration SNR the prediction must track closely.
    double predicted, actual;
    measure(midBandSnrDb(phy::Modulation::QAM16), predicted, actual);
    ASSERT_GT(actual, 0.0) << "need a noisy operating point";
    EXPECT_GT(predicted, actual / 5.0);
    EXPECT_LT(predicted, actual * 5.0);

    // Above the calibration SNR the estimator overestimates the BER
    // (section 4.2's documented bias of the fixed SNR constant).
    double pred_hi, act_hi;
    measure(midBandSnrDb(phy::Modulation::QAM16) + 1.0, pred_hi,
            act_hi);
    EXPECT_GT(pred_hi, act_hi);
}
