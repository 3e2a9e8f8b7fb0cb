/**
 * @file
 * Composed 802.11a/g OFDM transmitter kernel: scrambler ->
 * convolutional encoder -> puncturer -> interleaver -> mapper ->
 * pilot/subcarrier mapping -> IFFT -> cyclic prefix (the TX half of
 * Figure 1). This is the functional kernel; li wrappers build the
 * cycle-counted pipeline from the same blocks.
 */

#ifndef WILIS_PHY_OFDM_TX_HH
#define WILIS_PHY_OFDM_TX_HH

#include <cstdint>

#include "common/frame_arena.hh"
#include "common/types.hh"
#include "phy/conv_code.hh"
#include "phy/fft.hh"
#include "phy/interleaver.hh"
#include "phy/mapper.hh"
#include "phy/modulation.hh"
#include "phy/ofdm_symbol.hh"
#include "phy/puncture.hh"
#include "phy/scrambler.hh"

namespace wilis {
namespace phy {

/** Full OFDM transmitter for one 802.11a/g rate. */
class OfdmTransmitter
{
  public:
    /**
     * @param rate_idx       802.11a/g rate (0..7).
     * @param scrambler_seed Initial scrambler state.
     */
    explicit OfdmTransmitter(RateIndex rate_idx,
                             std::uint8_t scrambler_seed = 0x5D);

    /** Rate parameters in use. */
    const RateParams &rate() const { return params; }

    /**
     * Modulate a payload into time-domain samples. Every
     * intermediate stage and the returned sample buffer live in
     * @p ctx's arena: the view is valid until the arena is reset,
     * and a warmed-up arena makes this path allocation-free.
     * @param payload Data bits.
     * @param ctx     Frame context whose arena backs the output.
     */
    SampleSpan modulate(BitView payload, FrameContext &ctx);

  private:
    RateParams params;
    std::uint8_t seed;
    Interleaver interleaver;
    Mapper mapper;
    Puncturer puncturer;
    Fft fft;
};

} // namespace phy
} // namespace wilis

#endif // WILIS_PHY_OFDM_TX_HH
