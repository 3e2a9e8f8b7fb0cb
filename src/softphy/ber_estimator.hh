/**
 * @file
 * The hardware per-bit BER estimator of section 4.2: a two-level
 * lookup. Level one selects a table by modulation (each table bakes
 * in the mid-band SNR constant, S_modulation and S_decoder of
 * eq. 5); level two maps the decoder's LLR hint to a BER through a
 * 256-entry table built from eq. 4.
 *
 * The estimator is intentionally *not* SNR-adaptive: the paper
 * argues a fixed mid-band SNR constant per modulation suffices
 * because the SNR range over which a modulation's BER swings from
 * 1e-1 to 1e-7 is only a few dB, at the cost of slight over/under
 * estimation away from the band center (visible in Figure 6).
 */

#ifndef WILIS_SOFTPHY_BER_ESTIMATOR_HH
#define WILIS_SOFTPHY_BER_ESTIMATOR_HH

#include <array>
#include <span>

#include "common/types.hh"
#include "phy/modulation.hh"

namespace wilis {
namespace softphy {

/** Level-two table: LLR hint -> per-bit BER for one configuration. */
class BerTable
{
  public:
    /** Table resolution (the paper uses a small ROM). */
    static constexpr int kEntries = 256;

    /** All-zero table; use fromScale() for a real one. */
    BerTable();

    /**
     * Build from a combined eq. 5 scale.
     * @param scale   Combined Es/N0 * S_mod * S_dec factor.
     * @param llr_max Hint value mapped to the last entry.
     */
    static BerTable fromScale(double scale, double llr_max);

    /** Per-bit BER estimate for @p hint (clamped to table range). */
    double lookup(double hint) const;

    /** The combined scale the table was built from. */
    double scale() const { return scale_; }

    /** Hint range covered. */
    double llrMax() const { return llr_max_; }

  private:
    std::array<double, kEntries> table;
    double scale_ = 1.0;
    double llr_max_ = 1.0;
};

/**
 * Level-one dispatch plus per-packet aggregation: the SoftPHY unit a
 * receiver instantiates per decoder.
 *
 * Two dispatch granularities are supported:
 *  - per *modulation* (the paper's section 4.2 design: four tables),
 *  - per *rate* (eight tables). Puncturing shrinks decoder metric
 *    margins (a rate-3/4 trellis has roughly half the free-distance
 *    margin of the mother code), so the punctured rates of a
 *    modulation need their own scale to avoid systematically
 *    pessimistic estimates. The hardware cost is four extra small
 *    ROMs. The SoftRate experiment uses per-rate dispatch; see
 *    EXPERIMENTS.md for the ablation.
 */
class BerEstimator
{
  public:
    /** Empty estimator; install tables before lookups. */
    BerEstimator() = default;

    /** Install the table for @p mod. */
    void setTable(phy::Modulation mod, BerTable table);

    /** True if a table is installed for @p mod. */
    bool hasTable(phy::Modulation mod) const;

    /** Per-bit BER for one decoded bit's hint. */
    double perBitBer(phy::Modulation mod, double hint) const;

    /**
     * Per-packet BER: the arithmetic mean of the per-bit estimates
     * (section 4.4.2).
     */
    double packetBer(phy::Modulation mod,
                     std::span<const SoftDecision> soft) const;

    /** Install the table for @p rate (per-rate dispatch). */
    void setRateTable(phy::RateIndex rate, BerTable table);

    /** Per-packet BER under per-rate dispatch. */
    double packetBerForRate(phy::RateIndex rate,
                            std::span<const SoftDecision> soft) const;

  private:
    const BerTable &tableFor(phy::Modulation mod) const;
    const BerTable &tableForRate(phy::RateIndex rate) const;

    std::array<BerTable, 4> tables;
    std::array<bool, 4> present{};
    std::array<BerTable, phy::kNumRates> rate_tables;
    std::array<bool, phy::kNumRates> rate_present{};
};

} // namespace softphy
} // namespace wilis

#endif // WILIS_SOFTPHY_BER_ESTIMATOR_HH
