/**
 * @file
 * The 802.11a convolutional code: constraint length K = 7, rate 1/2,
 * generators g0 = 133, g1 = 171 (octal). The encoder is the shift
 * register described in section 4.1 of the paper; ConvCode also
 * exposes the trellis tables shared by all three decoders (Viterbi,
 * SOVA, BCJR) -- the paper notes that the BMU and the ACS structure
 * are common to both soft decoders.
 */

#ifndef WILIS_PHY_CONV_CODE_HH
#define WILIS_PHY_CONV_CODE_HH

#include <array>
#include <cstdint>

#include "common/types.hh"

namespace wilis {
namespace phy {

/** Static description of the K=7 802.11a convolutional code. */
class ConvCode
{
  public:
    /** Constraint length. */
    static constexpr int kConstraint = 7;
    /** Number of trellis states (2^(K-1)). */
    static constexpr int kStates = 64;
    /** Generator polynomial g0 (octal 133). */
    static constexpr unsigned kG0 = 0133;
    /** Generator polynomial g1 (octal 171). */
    static constexpr unsigned kG1 = 0171;
    /** Tail bits appended to terminate the trellis. */
    static constexpr int kTailBits = kConstraint - 1;

    /** Build the per-state transition tables once. */
    ConvCode();

    /**
     * Encode @p data at rate 1/2 into @p out: g0 output then g1
     * output per input bit.
     * @param data      Information bits.
     * @param terminate Append kTailBits zeros to drive the encoder
     *                  back to state 0 (802.11a behaviour).
     * @param out       Exactly 2 * (data.size() +
     *                  kTailBits-if-terminated) bits.
     */
    void encode(BitView data, bool terminate, BitSpan out) const;

    /** State reached from @p state on input @p bit. */
    int
    nextState(int state, int bit) const
    {
        return next_state[static_cast<size_t>(state)][bit];
    }

    /**
     * Two coded output bits (g0 in bit 0, g1 in bit 1) for the
     * transition from @p state on input @p bit.
     */
    unsigned
    outputBits(int state, int bit) const
    {
        return output[static_cast<size_t>(state)][bit];
    }

    /**
     * Predecessor of arrival state @p state via low-bit choice @p b:
     * the state whose oldest register bit was @p b. The input bit that
     * caused the transition into @p state is its MSB (bit 5).
     */
    static int
    predecessor(int state, int b)
    {
        return ((state & 0x1F) << 1) | b;
    }

    /** Input bit that produced arrival state @p state. */
    static int inputOf(int state) { return (state >> 5) & 1; }

  private:
    std::array<std::array<int, 2>, kStates> next_state;
    std::array<std::array<unsigned, 2>, kStates> output;
};

/** Process-wide shared code tables. */
const ConvCode &convCode();

} // namespace phy
} // namespace wilis

#endif // WILIS_PHY_CONV_CODE_HH
