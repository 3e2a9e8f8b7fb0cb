/**
 * @file
 * Large-scale propagation model for the multi-cell network
 * simulator: distance-based log-distance pathloss plus per-link
 * log-normal shadowing.
 *
 * The model works in *SNR space* rather than absolute powers: every
 * link budget divides by the same thermal noise floor, so the only
 * quantity the simulator needs is the mean SNR a transmitter
 * produces at a receiver -- the SNR at a reference distance minus
 * the log-distance pathloss plus a zero-mean shadowing term. That
 * is exactly the form the effective-SNR hook of the fidelity ladder
 * consumes (sim::AnalyticLink), so interference-aware SINR folds
 * into the calibrated analytic rung without touching the tables.
 *
 * Shadowing is *static per link*: one deterministic Gaussian draw
 * keyed by (seed, user, cell) through the counter generator, never
 * by evaluation order, so a deployment's link budget matrix is a
 * pure function of the spec -- bit-identical for any thread count,
 * like every other artifact in this codebase.
 */

#ifndef WILIS_CHANNEL_PATHLOSS_HH
#define WILIS_CHANNEL_PATHLOSS_HH

#include <cstdint>

namespace wilis {
namespace channel {

/** Parameters of the log-distance pathloss + shadowing model. */
struct PathlossSpec {
    /**
     * Mean SNR in dB a transmitter produces at the reference
     * distance (the close-in "free space" anchor of the
     * log-distance model, with the noise floor already divided
     * out). The default puts the cell edge of the default grid
     * geometry (250 m radius, exponent 3.5) near 5 dB -- the
     * interference-limited regime the calibrated SNR window
     * covers.
     */
    double refSnrDb = 54.0;
    /** Reference distance in meters (d0 of the model). */
    double refDistanceM = 10.0;
    /** Pathloss exponent (2 = free space, 3.5-4 = urban macro). */
    double exponent = 3.5;
    /** Log-normal shadowing standard deviation in dB (0 = off). */
    double shadowSigmaDb = 6.0;
};

/**
 * Deterministic pathloss + shadowing evaluator. Construction is
 * trivial; linkSnrDb() is a pure function of (spec, seed, distance,
 * user, cell).
 */
class PathlossModel
{
  public:
    /** @param seed Shadowing stream seed (derived by the caller). */
    PathlossModel(const PathlossSpec &spec, std::uint64_t seed);

    /** The parameters in use. */
    const PathlossSpec &spec() const { return spec_; }

    /**
     * Log-distance pathloss in dB relative to the reference
     * distance: 10 * exponent * log10(d / d0). Distances inside d0
     * clamp to 0 dB (the model has no close-in gain).
     */
    double pathlossDb(double distance_m) const;

    /**
     * Static shadowing of the (user, cell) link in dB: a zero-mean
     * Gaussian with the configured sigma, keyed by (seed, user,
     * cell) -- replayable in any order.
     */
    double shadowingDb(int user, int cell) const;

    /**
     * Mean link SNR in dB: refSnrDb - pathlossDb(distance) +
     * shadowingDb(user, cell). Fast fading is *not* included; the
     * per-slot gain is the fading process's job.
     */
    double linkSnrDb(double distance_m, int user, int cell) const;

    /**
     * linkSnrDb() with a caller-cached shadowing term: the
     * position-dependent form the mobility layer re-evaluates
     * every gain epoch (shadowing is static per link, so callers
     * that move users precompute it once and vary only the
     * distance). Bitwise identical to linkSnrDb() when
     * @p shadow_db == shadowingDb(user, cell).
     */
    double
    linkSnrDbAt(double distance_m, double shadow_db) const
    {
        return spec_.refSnrDb - pathlossDb(distance_m) + shadow_db;
    }

  private:
    PathlossSpec spec_;
    std::uint64_t seed_;
};

} // namespace channel
} // namespace wilis

#endif // WILIS_CHANNEL_PATHLOSS_HH
