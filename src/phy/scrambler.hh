/**
 * @file
 * 802.11 frame-synchronous scrambler (polynomial x^7 + x^4 + 1).
 *
 * The same structure both scrambles and descrambles: XORing the data
 * with the identical PRBS recovers the original. The all-ones-seeded
 * zero-input sequence also defines the pilot polarity sequence p_n of
 * 802.11a, which PilotMapper reuses.
 */

#ifndef WILIS_PHY_SCRAMBLER_HH
#define WILIS_PHY_SCRAMBLER_HH

#include <cstdint>

#include "common/types.hh"

namespace wilis {
namespace phy {

/** Frame-synchronous PRBS scrambler/descrambler. */
class Scrambler
{
  public:
    /** @param seed 7-bit nonzero initial state. */
    explicit Scrambler(std::uint8_t seed = 0x7F);

    /** Reset to a new seed. */
    void reset(std::uint8_t seed);

    /** Next PRBS bit (advances state). */
    Bit nextPrbsBit()
    {
        // Feedback = x^7 ^ x^4 (bits 6 and 3 of the 7-bit register).
        const Bit fb =
            static_cast<Bit>(((state >> 6) ^ (state >> 3)) & 1);
        state = static_cast<std::uint8_t>(((state << 1) | fb) & 0x7F);
        return fb;
    }

    /** Scramble (or descramble) one bit. */
    Bit process(Bit in) { return in ^ nextPrbsBit(); }

    /**
     * Scramble (or descramble) @p in into @p out (same length).
     * In-place operation (out.data() == in.data()) is allowed.
     */
    void process(BitView in, BitSpan out);

    /**
     * The 127-element pilot polarity sequence of 802.11a: the PRBS of
     * an all-ones-seeded scrambler, mapped 0 -> +1, 1 -> -1.
     */
    static void pilotPolarity(int out[127]);

  private:
    std::uint8_t state;
};

} // namespace phy
} // namespace wilis

#endif // WILIS_PHY_SCRAMBLER_HH
