#include "softphy/softphy.hh"

#include <cmath>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "sim/sweep.hh"

namespace wilis {
namespace softphy {

double
CalibrationSpec::llrMax() const
{
    // Decoder hints are path-metric differences accumulated over the
    // code's constraint span; ~20x the demapper's positive rail
    // comfortably covers the observed range.
    return 20.0 * static_cast<double>(
                      1 << (rx.demapper.softWidth - 1));
}

double
midBandSnrDb(phy::Modulation mod)
{
    // Mid-points of the coded 802.11a waterfall regions (a few dB
    // wide per modulation, see Doufexi et al. for the ranges),
    // verified against this pipeline: decoded BER is ~1e-2 at these
    // points, so a calibration run observes enough errors to trace
    // the full Figure 5 curve.
    switch (mod) {
      case phy::Modulation::BPSK:
        return -1.0;
      case phy::Modulation::QPSK:
        return 2.0;
      case phy::Modulation::QAM16:
        return 8.0;
      case phy::Modulation::QAM64:
        return 14.0;
    }
    wilis_panic("bad modulation");
}

phy::RateIndex
calibrationRate(phy::Modulation mod)
{
    switch (mod) {
      case phy::Modulation::BPSK:
        return 0; // BPSK 1/2
      case phy::Modulation::QPSK:
        return 2; // QPSK 1/2
      case phy::Modulation::QAM16:
        return 4; // QAM16 1/2
      case phy::Modulation::QAM64:
        return 6; // QAM64 2/3 (no 1/2 rate exists)
    }
    wilis_panic("bad modulation");
}

namespace {

/** The LLR curve of each (rate, SNR dB) point, all in one sweep. */
std::vector<LlrCalibrator>
measureLlrCurves(const std::vector<std::pair<phy::RateIndex, double>> &points,
                 const CalibrationSpec &spec)
{
    std::vector<sim::ScenarioSpec> cells;
    for (const auto &[rate, snr_db] : points) {
        sim::ScenarioSpec scen;
        scen.rate = rate;
        scen.rx = spec.rx;
        scen.channel = "awgn";
        scen.channelCfg = li::Config::fromString(
            strprintf("snr_db=%f,seed=%llu", snr_db,
                      static_cast<unsigned long long>(spec.seed)));
        scen.payloadBits = spec.payloadBits;
        cells.push_back(scen);
    }
    // One small histogram per packet; the bins are integer counts.
    const std::vector<LlrCalibrator> per_packet = sim::sweepPackets(
        cells, spec.packets, spec.threads,
        [&](size_t, std::uint64_t, const sim::FrameResult &res) {
            LlrCalibrator cal(spec.llrMax());
            for (size_t i = 0; i < res.txPayload.size(); ++i) {
                cal.record(res.rx.soft[i].llr,
                           res.rx.soft[i].bit != res.txPayload[i]);
            }
            return cal;
        });
    std::vector<LlrCalibrator> curves(points.size(),
                                      LlrCalibrator(spec.llrMax()));
    for (size_t i = 0; i < per_packet.size(); ++i)
        curves[i / spec.packets].merge(per_packet[i]);
    return curves;
}

/** The level-two table of @p cal, measured at @p rate. */
BerTable
fitTable(const LlrCalibrator &cal, phy::RateIndex rate,
         const CalibrationSpec &spec)
{
    const double scale = cal.fitScale();
    wilis_assert(scale > 0.0,
                 "calibration produced scale %f for rate %d", scale,
                 rate);
    return BerTable::fromScale(scale, spec.llrMax());
}

const phy::Modulation kModulations[] = {
    phy::Modulation::BPSK, phy::Modulation::QPSK,
    phy::Modulation::QAM16, phy::Modulation::QAM64};

} // namespace

LlrCalibrator
measureLlrCurve(phy::RateIndex rate, double snr_db,
                const CalibrationSpec &spec)
{
    return measureLlrCurves({{rate, snr_db}}, spec)[0];
}

BerTable
calibrateTable(phy::Modulation mod, const CalibrationSpec &spec)
{
    const phy::RateIndex rate = calibrationRate(mod);
    return fitTable(measureLlrCurve(rate, midBandSnrDb(mod), spec), rate,
                    spec);
}

BerEstimator
calibrateEstimator(const CalibrationSpec &spec)
{
    std::vector<std::pair<phy::RateIndex, double>> points;
    for (phy::Modulation mod : kModulations)
        points.emplace_back(calibrationRate(mod), midBandSnrDb(mod));
    const std::vector<LlrCalibrator> curves =
        measureLlrCurves(points, spec);
    BerEstimator est;
    for (size_t m = 0; m < points.size(); ++m)
        est.setTable(kModulations[m],
                     fitTable(curves[m], points[m].first, spec));
    return est;
}

double
midBandSnrDbForRate(phy::RateIndex rate)
{
    // Decoded-BER ~1e-2 points of each rate's waterfall on this
    // pipeline: the punctured 3/4 (and 2/3) rates sit ~3 dB to the
    // right of the mother-code rate of the same modulation.
    static const double snr[phy::kNumRates] = {-1.0, 2.0, 2.0, 5.0,
                                               8.0,  11.0, 14.0, 17.0};
    return snr[static_cast<size_t>(rate)];
}

BerEstimator
calibrateRateEstimator(const CalibrationSpec &spec)
{
    std::vector<std::pair<phy::RateIndex, double>> points;
    for (int r = 0; r < phy::kNumRates; ++r)
        points.emplace_back(r, midBandSnrDbForRate(r));
    const std::vector<LlrCalibrator> curves =
        measureLlrCurves(points, spec);
    BerEstimator est;
    for (int r = 0; r < phy::kNumRates; ++r)
        est.setRateTable(r, fitTable(curves[static_cast<size_t>(r)], r,
                                     spec));
    return est;
}

BerEstimator
analyticRateEstimator(const phy::OfdmReceiver::Config &rx)
{
    CalibrationSpec spec;
    spec.rx = rx;
    // eq. 5 without a fitted decoder factor: the demapper emits
    // |metric| * rail / fullScale after quantization, so one hint
    // count is worth fullScale / rail in real-metric units, and the
    // true LLR per hint count is Es/N0 * S_mod * fullScale / rail
    // (S_dec taken as 1, the mother-code ballpark).
    const double rail = static_cast<double>(
        1 << (rx.demapper.softWidth - 1));
    BerEstimator est;
    for (int r = 0; r < phy::kNumRates; ++r) {
        phy::Modulation mod = phy::rateTable(r).modulation;
        double es_n0 =
            std::pow(10.0, midBandSnrDbForRate(r) / 10.0);
        double scale = es_n0 * phy::modulationLlrScale(mod) *
                       rx.demapper.fullScale / rail;
        est.setRateTable(r, BerTable::fromScale(scale, spec.llrMax()));
    }
    return est;
}

} // namespace softphy
} // namespace wilis
