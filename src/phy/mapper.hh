/**
 * @file
 * Gray constellation mapper for BPSK/QPSK/16-QAM/64-QAM, normalized
 * to unit average symbol energy as in 802.11a (K_mod = 1, 1/sqrt(2),
 * 1/sqrt(10), 1/sqrt(42)).
 *
 * Bit-to-axis convention (per axis, MSB first): the first bit selects
 * the sign (1 = positive), subsequent bits Gray-select the magnitude
 * from inside out -- the same convention the soft demapper's
 * simplified metrics (Tosato-Bisaglia) assume.
 */

#ifndef WILIS_PHY_MAPPER_HH
#define WILIS_PHY_MAPPER_HH

#include <vector>

#include "common/types.hh"
#include "phy/modulation.hh"

namespace wilis {
namespace phy {

/** Bits-to-constellation-point mapper. */
class Mapper
{
  public:
    /** Build the mapper for one modulation. */
    explicit Mapper(Modulation mod_);

    /** Modulation handled. */
    Modulation modulation() const { return mod; }

    /**
     * Map @p n_bpsc bits (MSB first) to one constellation point: a
     * lookup into the modulation's constellation table.
     * @param bits Pointer to n_bpsc bits.
     */
    Sample
    map(const Bit *bits) const
    {
        unsigned idx = 0;
        for (int b = 0; b < n_bpsc; ++b)
            idx = (idx << 1) | (bits[b] != 0 ? 1u : 0u);
        return points[idx];
    }

    /** Map a whole stream (length must divide evenly). */
    SampleVec mapStream(const BitVec &bits) const;

    /**
     * Ideal constellation points indexed by the bit pattern
     * (MSB-first packing), for tests and hard demapping.
     */
    std::vector<Sample> constellation() const;

  private:
    Modulation mod;
    int n_bpsc;
    /** The process-wide constellation of mod, by bit pattern. */
    const Sample *points;
};

} // namespace phy
} // namespace wilis

#endif // WILIS_PHY_MAPPER_HH
