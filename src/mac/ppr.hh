/**
 * @file
 * Partial Packet Recovery (Jamieson & Balakrishnan, SIGCOMM'07): use
 * SoftPHY per-bit BER estimates to retransmit only the suspicious
 * chunks of a corrupted packet instead of the whole frame -- the
 * first motivating consumer of SoftPHY hints named in section 4.
 */

#ifndef WILIS_MAC_PPR_HH
#define WILIS_MAC_PPR_HH

#include <cstdint>
#include <span>

#include "common/types.hh"
#include "phy/modulation.hh"
#include "softphy/ber_estimator.hh"

namespace wilis {
namespace mac {

/** Outcome of a PPR recovery decision on one packet. */
struct PprOutcome {
    /** Bits whose estimated BER exceeded the threshold. */
    std::uint64_t flaggedBits = 0;
    /** Actually erroneous bits that were flagged (recoverable). */
    std::uint64_t caughtErrors = 0;
    /** Actually erroneous bits that escaped flagging. */
    std::uint64_t missedErrors = 0;
    /** Total payload bits. */
    std::uint64_t totalBits = 0;

    /** Retransmission would repair the packet. */
    bool recoverable() const { return missedErrors == 0; }

    /** Fraction of the packet requested for retransmission. */
    double
    retransmitFraction() const
    {
        return totalBits ? static_cast<double>(flaggedBits) /
                               static_cast<double>(totalBits)
                         : 0.0;
    }
};

/** Per-bit-hint driven partial recovery policy. */
class PprPolicy
{
  public:
    /**
     * @param estimator  Calibrated SoftPHY estimator (not owned).
     * @param ber_threshold Bits with estimated BER above this are
     *                   requested for retransmission.
     * @param chunk_bits Retransmission granularity: flagging any bit
     *                   flags its whole chunk (PPR operates on
     *                   chunks, not single bits).
     */
    PprPolicy(const softphy::BerEstimator *estimator,
              double ber_threshold = 1e-3, int chunk_bits = 32)
        : est(estimator), threshold(ber_threshold),
          chunk(chunk_bits)
    {}

    /**
     * Evaluate PPR on one received packet (allocation-free: the
     * chunk scan needs no flag buffer).
     * @param mod  Modulation (selects the estimator table).
     * @param soft Per-bit decisions with hints.
     * @param ref  Ground-truth payload for outcome accounting.
     */
    PprOutcome evaluate(phy::Modulation mod,
                        std::span<const SoftDecision> soft,
                        BitView ref) const;

  private:
    const softphy::BerEstimator *est;
    double threshold;
    int chunk;
};

} // namespace mac
} // namespace wilis

#endif // WILIS_MAC_PPR_HH
