#include "softphy/softphy.hh"

#include <cmath>
#include <vector>

#include "common/lockstep.hh"
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

LlrCalibrator
measureLlrCurve(phy::RateIndex rate, double snr_db,
                const CalibrationSpec &spec)
{
    sim::ScenarioSpec scen;
    scen.rate = rate;
    scen.rx = spec.rx;
    scen.channel = "awgn";
    scen.channelCfg = li::Config::fromString(
        strprintf("snr_db=%f,seed=%llu", snr_db,
                  static_cast<unsigned long long>(spec.seed)));
    scen.payloadBits = spec.payloadBits;

    // The bins are integer counts, so the merged curve does not
    // depend on the worker count.
    const int threads = LockstepTeam::workerCount(spec.threads, spec.packets);
    std::vector<LlrCalibrator> per_thread(
        static_cast<size_t>(threads),
        LlrCalibrator(spec.llrMax()));

    sim::sweepFrames(
        scen, spec.packets, threads,
        [&](int tid, const sim::FrameResult &res, std::uint64_t) {
            auto &cal = per_thread[static_cast<size_t>(tid)];
            for (size_t i = 0; i < res.txPayload.size(); ++i) {
                cal.record(res.rx.soft[i].llr,
                           res.rx.soft[i].bit != res.txPayload[i]);
            }
        });

    LlrCalibrator total = per_thread[0];
    for (size_t t = 1; t < per_thread.size(); ++t)
        total.merge(per_thread[t]);
    return total;
}

BerTable
calibrateTable(phy::Modulation mod, const CalibrationSpec &spec)
{
    LlrCalibrator cal = measureLlrCurve(
        calibrationRate(mod), midBandSnrDb(mod), spec);
    double scale = cal.fitScale();
    wilis_assert(scale > 0.0, "calibration produced scale %f for %s",
                 scale, phy::modulationName(mod).c_str());
    return BerTable::fromScale(scale, spec.llrMax());
}

BerEstimator
calibrateEstimator(const CalibrationSpec &spec)
{
    BerEstimator est;
    for (phy::Modulation mod :
         {phy::Modulation::BPSK, phy::Modulation::QPSK,
          phy::Modulation::QAM16, phy::Modulation::QAM64}) {
        est.setTable(mod, calibrateTable(mod, spec));
    }
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

BerTable
calibrateRateTable(phy::RateIndex rate, const CalibrationSpec &spec)
{
    LlrCalibrator cal =
        measureLlrCurve(rate, midBandSnrDbForRate(rate), spec);
    double scale = cal.fitScale();
    wilis_assert(scale > 0.0,
                 "calibration produced scale %f for rate %d", scale,
                 rate);
    return BerTable::fromScale(scale, spec.llrMax());
}

BerEstimator
calibrateRateEstimator(const CalibrationSpec &spec)
{
    BerEstimator est;
    for (int r = 0; r < phy::kNumRates; ++r)
        est.setRateTable(r, calibrateRateTable(r, spec));
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
