/**
 * @file
 * The SoftRate rate-adaptation MAC (Vutukuru et al., SIGCOMM'09) as
 * evaluated in section 4.4.2: the transmitter observes the per-packet
 * BER estimate the receiver's SoftPHY unit attaches to the (modeled)
 * ARQ acknowledgement, and if the PBER falls outside a pre-computed
 * operating range it immediately steps the rate down or up.
 */

#ifndef WILIS_MAC_SOFTRATE_HH
#define WILIS_MAC_SOFTRATE_HH

#include <cstdint>

#include "common/snapshot.hh"
#include "phy/modulation.hh"

namespace wilis {
namespace mac {

/** SoftRate rate controller state machine. */
class SoftRateMac
{
  public:
    /** Controller thresholds. */
    struct Config {
        /**
         * PBER operating range for the ARQ link layer (section
         * 4.4.2: between 1e-7 and 1e-5). Below lo the channel has
         * headroom -> rate up; above hi errors loom -> rate down.
         */
        double pberLo = 1e-7;
        double pberHi = 1e-5;
        /** Initial rate index. */
        phy::RateIndex initialRate = 0;
    };

    /** Construct with the default thresholds. */
    SoftRateMac() : SoftRateMac(Config()) {}

    /** Construct with explicit thresholds. */
    explicit SoftRateMac(const Config &cfg_) : cfg(cfg_),
        current(cfg_.initialRate)
    {}

    /** Rate to use for the next packet. */
    phy::RateIndex currentRate() const { return current; }

    /**
     * Feed back the receiver's PBER estimate for the last packet;
     * adjusts the rate for future packets.
     * @return the new current rate.
     */
    phy::RateIndex
    onFeedback(double pber)
    {
        if (pber > cfg.pberHi && current > 0) {
            --current;
        } else if (pber < cfg.pberLo &&
                   current < phy::kNumRates - 1) {
            ++current;
        }
        return current;
    }

    /** Reset to the initial rate. */
    void reset() { current = cfg.initialRate; }

    /** Serialize the mutable state (the current rate index). */
    void
    saveState(SnapshotWriter &w) const
    {
        w.i64(static_cast<std::int64_t>(current));
    }

    /** Restore state written by saveState() (same Config). */
    void
    loadState(SnapshotReader &r)
    {
        current = static_cast<phy::RateIndex>(
            r.i64In(0, phy::kNumRates, "SoftRate rate index"));
    }

  private:
    Config cfg;
    phy::RateIndex current;
};

} // namespace mac
} // namespace wilis

#endif // WILIS_MAC_SOFTRATE_HH
