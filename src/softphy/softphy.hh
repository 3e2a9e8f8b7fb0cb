/**
 * @file
 * End-to-end SoftPHY calibration driver: run packets through a
 * transceiver at a fixed mid-band SNR per modulation, fit the
 * combined eq. 5 scale from the observed BER-vs-LLR relationship,
 * and bake the two-level lookup estimator. This is exactly the flow
 * of section 4.4.1: simulate, observe the log-linear curve, derive
 * the scaling factors, generate the lookup tables.
 */

#ifndef WILIS_SOFTPHY_SOFTPHY_HH
#define WILIS_SOFTPHY_SOFTPHY_HH

#include <cstdint>
#include <string>

#include "phy/ofdm_rx.hh"
#include "softphy/ber_estimator.hh"
#include "softphy/calibration.hh"

namespace wilis {
namespace softphy {

/** Parameters of one calibration run. */
struct CalibrationSpec {
    /** Receiver configuration (decoder slot, demapper width...). */
    phy::OfdmReceiver::Config rx;
    /** Payload size of calibration packets. */
    size_t payloadBits = 1704;
    /** Packets per modulation. */
    std::uint64_t packets = 300;
    /** Worker threads (0 = hardware concurrency). */
    int threads = 0;
    /** Base seed for channel noise. */
    std::uint64_t seed = 0xCA11B;

    /** Hint range covered by tables, derived from demapper width. */
    double llrMax() const;
};

/**
 * The mid-band calibration SNR for @p mod: the paper picks a single
 * SNR "in the middle of the range" over which the modulation's BER
 * falls from 1e-1 to 1e-7 (section 4.2).
 */
double midBandSnrDb(phy::Modulation mod);

/** Representative rate index used to calibrate @p mod (1/2-ish). */
phy::RateIndex calibrationRate(phy::Modulation mod);

/**
 * Measure the BER-vs-LLR curve for one rate at one SNR (the raw data
 * behind Figure 5).
 */
LlrCalibrator measureLlrCurve(phy::RateIndex rate, double snr_db,
                              const CalibrationSpec &spec);

/** Calibrate the level-two table for one modulation. */
BerTable calibrateTable(phy::Modulation mod,
                        const CalibrationSpec &spec);

/**
 * Build a fully calibrated estimator (all four modulations) for the
 * decoder named in @p spec.rx.
 */
BerEstimator calibrateEstimator(const CalibrationSpec &spec);

/**
 * Mid-band calibration SNR for a specific rate. Punctured rates of
 * a modulation have their waterfall a few dB to the right of the
 * mother-code rate.
 */
double midBandSnrDbForRate(phy::RateIndex rate);

/**
 * Build an estimator with all eight per-rate tables (the refinement
 * used by the SoftRate experiment; see BerEstimator docs).
 */
BerEstimator calibrateRateEstimator(const CalibrationSpec &spec);

/**
 * Calibration-free per-rate estimator: each table's combined eq. 5
 * scale is derived analytically from the mid-band Es/N0, the
 * S_modulation demapper constant and the demapper's quantization
 * step, taking the decoder scale S_dec as 1. A zero-cost stand-in
 * for calibrateRateEstimator() where a full calibration sweep is too
 * expensive (e.g. constructing a many-user sim::NetworkSim); expect
 * coarser absolute PBER accuracy than the calibrated tables.
 */
BerEstimator analyticRateEstimator(const phy::OfdmReceiver::Config &rx);

} // namespace softphy
} // namespace wilis

#endif // WILIS_SOFTPHY_SOFTPHY_HH
