/**
 * @file
 * Composed 802.11a/g OFDM receiver kernel: cyclic prefix removal ->
 * FFT -> equalization (perfect CSI) -> soft demapper ->
 * deinterleaver -> depuncturer -> pluggable soft decoder ->
 * descrambler (the RX half of Figure 1). The decoder slot is
 * resolved through the plug-n-play registry, so a receiver can be
 * built with "viterbi", "sova", "bcjr" or "bcjr-logmap" without any
 * source change.
 */

#ifndef WILIS_PHY_OFDM_RX_HH
#define WILIS_PHY_OFDM_RX_HH

#include <cstdint>
#include <memory>
#include <string>

#include "channel/channel.hh"
#include "common/frame_arena.hh"
#include "common/types.hh"
#include "decode/soft_decoder.hh"
#include "phy/demapper.hh"
#include "phy/fft.hh"
#include "phy/interleaver.hh"
#include "phy/modulation.hh"
#include "phy/ofdm_symbol.hh"
#include "phy/puncture.hh"

namespace wilis {
namespace phy {

/**
 * Output of demodulating one packet: views into the frame arena,
 * valid until the arena is reset. Callers that keep a result past
 * that copy it out themselves. payload[i] == soft[i].bit.
 */
struct RxFrame {
    /** Decoded, descrambled payload bits (arena view). */
    BitSpan payload;
    /**
     * Per-payload-bit decisions with the decoder's LLR hints (the
     * SoftPHY export; arena view).
     */
    std::span<SoftDecision> soft;

    /** Bit errors against a reference payload. */
    std::uint64_t bitErrors(BitView ref) const;
};

/** Full OFDM receiver for one 802.11a/g rate. */
class OfdmReceiver
{
  public:
    /** Receiver configuration. */
    struct Config {
        /** Decoder registry name. */
        std::string decoder = "bcjr";
        /** Decoder parameters (traceback/window lengths...). */
        li::Config decoderCfg;
        /** Demapper quantization parameters. */
        Demapper::Config demapper;
        /** Scrambler seed (must match the transmitter). */
        std::uint8_t scramblerSeed = 0x5D;
        /**
         * Weight each subcarrier's soft metrics by its channel
         * amplitude |H| (matched-filter metric after zero-forcing).
         * Essential on frequency-selective channels; false models
         * the paper's unweighted hardware demapper.
         */
        bool applyCsiWeight = false;
    };

    /** Construct with the default configuration (BCJR decoder). */
    explicit OfdmReceiver(RateIndex rate_idx);

    /** Construct with an explicit configuration. */
    OfdmReceiver(RateIndex rate_idx, const Config &cfg);

    /** Rate parameters in use. */
    const RateParams &rate() const { return params; }

    /** The decoder instance (for latency/area queries). */
    const decode::SoftDecoder &decoder() const { return *dec; }

    /**
     * Demodulate a packet. All intermediate stages and the returned
     * payload/soft views live in @p ctx's arena; a warmed-up arena
     * makes this path allocation-free end to end (the decoder keeps
     * its scratch in members).
     * @param samples      Received time-domain samples.
     * @param payload_bits Expected payload length in bits (known to
     *                     the receiver: no header is decoded).
     * @param csi          Channel providing per-symbol gains for
     *                     equalization; nullptr = unity gain.
     * @param packet_index Packet index for CSI lookup.
     * @param ctx          Frame context whose arena backs the output.
     */
    RxFrame demodulate(SampleView samples, size_t payload_bits,
                       const channel::Channel *csi,
                       std::uint64_t packet_index, FrameContext &ctx);

  private:
    RateParams params;
    Config cfg;
    Interleaver interleaver;
    Puncturer puncturer;
    Demapper demapper;
    Fft fft;
    std::unique_ptr<decode::SoftDecoder> dec;
};

} // namespace phy
} // namespace wilis

#endif // WILIS_PHY_OFDM_RX_HH
