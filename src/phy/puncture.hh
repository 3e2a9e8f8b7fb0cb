/**
 * @file
 * 802.11a puncturing: derives rates 2/3 and 3/4 from the rate-1/2
 * mother code by deleting coded bits; the depuncturer reinserts
 * zero-confidence erasures so the decoders always see the full
 * rate-1/2 lattice.
 */

#ifndef WILIS_PHY_PUNCTURE_HH
#define WILIS_PHY_PUNCTURE_HH

#include "common/types.hh"
#include "phy/modulation.hh"

namespace wilis {
namespace phy {

/** Puncturer/depuncturer for the 802.11a code-rate set. */
class Puncturer
{
  public:
    /** Build the puncturer for one code rate. */
    explicit Puncturer(CodeRate rate_) : rate(rate_) {}

    /** Code rate handled. */
    CodeRate codeRate() const { return rate; }

    /** Punctured length for a rate-1/2 stream of @p coded_len bits. */
    size_t puncturedLength(size_t coded_len) const;

    /** Rate-1/2 length that punctures to @p punct_len bits. */
    size_t unpuncturedLength(size_t punct_len) const;

    /**
     * Remove punctured positions from rate-1/2 @p coded bits (the
     * identity for R12); @p out must hold exactly
     * puncturedLength(coded.size()) bits.
     */
    void puncture(BitView coded, BitSpan out) const;

    /**
     * Reinsert erasures (soft value 0) at punctured positions of
     * @p soft, received in punctured order; @p out must hold exactly
     * unpuncturedLength(soft.size()) values.
     */
    void depuncture(SoftView soft, SoftSpan out) const;

    /**
     * True if position @p i of the rate-1/2 stream (A1 B1 A2 B2 ...)
     * survives puncturing.
     */
    bool kept(size_t i) const;

  private:
    /**
     * The rate's keep-pattern over one puncturing period of the
     * rate-1/2 output stream (A1 B1 A2 B2 ...) lives in puncture.cc:
     * R23 keeps A1 B1 A2 (drops B2); R34 keeps A1 B1 A2 B3 (drops B2
     * A3).
     */
    CodeRate rate;
};

} // namespace phy
} // namespace wilis

#endif // WILIS_PHY_PUNCTURE_HH
