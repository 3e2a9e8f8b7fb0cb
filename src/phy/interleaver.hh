/**
 * @file
 * 802.11a block interleaver (clause 17.3.5.6): two permutations over
 * each OFDM symbol's N_CBPS coded bits. The first spreads adjacent
 * coded bits across subcarriers (defeating frequency-local fades);
 * the second alternates them between more- and less-significant
 * constellation bit positions.
 */

#ifndef WILIS_PHY_INTERLEAVER_HH
#define WILIS_PHY_INTERLEAVER_HH

#include <vector>

#include "common/types.hh"
#include "phy/modulation.hh"

namespace wilis {
namespace phy {

/** Per-symbol block interleaver/deinterleaver. */
class Interleaver
{
  public:
    /** @param mod Modulation (fixes N_BPSC and hence N_CBPS). */
    explicit Interleaver(Modulation mod);

    /** Coded bits per interleaving block. */
    int blockSize() const { return n_cbps; }

    /**
     * Interleave a stream of whole blocks (its length a multiple of
     * blockSize()) into @p out (same length).
     */
    void interleaveStream(BitView in, BitSpan out) const;

    /** Deinterleave one block's soft values into @p out. */
    void deinterleave(SoftView in, SoftSpan out) const;

    /** Position bit k moves to after interleaving. */
    int
    txPosition(int k) const
    {
        return fwd[static_cast<size_t>(k)];
    }

  private:
    int n_cbps;
    std::vector<int> fwd; // fwd[k] = interleaved position of bit k
    std::vector<int> inv; // inv[j] = original position of bit j
};

} // namespace phy
} // namespace wilis

#endif // WILIS_PHY_INTERLEAVER_HH
