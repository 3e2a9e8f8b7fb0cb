/**
 * @file
 * PLCP framing: the SIGNAL field (rate + length header, always BPSK
 * 1/2, unscrambled) and full-frame assembly (preamble + SIGNAL +
 * DATA). With this layer a receiver no longer needs out-of-band
 * knowledge of the packet's rate and size -- it reads them from the
 * header like a real 802.11a device.
 */

#ifndef WILIS_PHY_PLCP_HH
#define WILIS_PHY_PLCP_HH

#include <cstdint>
#include <memory>
#include <string>
#include <utility>

#include "channel/channel.hh"
#include "common/types.hh"
#include "phy/modulation.hh"
#include "phy/ofdm_rx.hh"

namespace wilis {
namespace phy {

/** Decoded contents of a SIGNAL field. */
struct SignalField {
    /** Data rate index of the payload. */
    RateIndex rate = 0;
    /** PSDU length in bytes (1..4095). */
    int lengthBytes = 0;

    /** Field-wise equality. */
    bool
    operator==(const SignalField &o) const
    {
        return rate == o.rate && lengthBytes == o.lengthBytes;
    }
};

/** SIGNAL field encode/decode (one BPSK 1/2 OFDM symbol). */
class Signal
{
  public:
    /** 4-bit RATE encoding of clause 17.3.4.1 for a rate index. */
    static unsigned rateBits(RateIndex rate);

    /** Rate index for a 4-bit RATE pattern; -1 if invalid. */
    static int rateFromBits(unsigned bits);

    /** The 24 SIGNAL bits (rate, reserved, length, parity, tail). */
    static BitVec encodeBits(const SignalField &f);

    /**
     * Parse 24 decoded SIGNAL bits.
     * @return true if the parity and rate pattern are valid.
     */
    static bool decodeBits(const BitVec &bits, SignalField &out);

    /** Modulate the SIGNAL field into one 80-sample OFDM symbol. */
    static SampleVec modulate(const SignalField &f);

    /**
     * Demodulate and decode a received 80-sample SIGNAL symbol.
     * @param h_bins Per-bin channel estimate for equalization.
     * @return true on valid parity/rate.
     */
    static bool demodulate(const SampleVec &symbol,
                           const SampleVec &h_bins, SignalField &out);
};

/** Full-frame transmitter: preamble + SIGNAL + DATA. */
class PlcpTransmitter
{
  public:
    /** @param scrambler_seed Initial DATA scrambler state. */
    explicit PlcpTransmitter(std::uint8_t scrambler_seed = 0x5D);

    /**
     * Assemble a complete PLCP frame.
     * @param rate    Data rate index for the payload.
     * @param payload Payload bytes as bits (length must be a
     *                multiple of 8, up to 4095 bytes).
     */
    SampleVec buildFrame(RateIndex rate, const BitVec &payload);

    /** Samples in a frame carrying @p payload_bits at @p rate. */
    size_t frameSamples(RateIndex rate, size_t payload_bits) const;

  private:
    std::uint8_t seed;
};

/**
 * Result of receiving one PLCP frame. A frame too short for its
 * preamble and SIGNAL, or for the LENGTH its SIGNAL decodes to (a
 * corrupt LENGTH can pass the 1-bit parity), is rejected like a bad
 * header: headerOk is false and the payload empty.
 */
struct PlcpRxResult {
    /**
     * Header parsed successfully (parity + rate pattern valid) and
     * the frame holds the payload it announces.
     */
    bool headerOk = false;
    /** The decoded SIGNAL field (meaningful only if headerOk). */
    SignalField header;
    /** Decoded payload (empty if headerOk is false). */
    BitVec payload;
    /** Per-bit SoftPHY hints for the payload. */
    std::vector<SoftDecision> soft;
};

/**
 * Fixed per-bin CSI for preamble-estimated channels: the channel
 * state of every symbol is the same set of bin gains.
 */
class StaticCsi : public channel::Channel
{
  public:
    /** @param h_bins The gain of each FFT bin. */
    explicit StaticCsi(SampleVec h_bins) : h(std::move(h_bins)) {}

    std::string name() const override { return "static-csi"; }
    void apply(SampleSpan, std::uint64_t) override {}
    Sample
    impairSample(Sample s, std::uint64_t, std::uint64_t) const override
    {
        return s;
    }
    double noiseVariance() const override { return 0.0; }
    /** Copies the fixed bins. */
    void binGains(std::uint64_t packet_index, int symbol_index,
                  SampleSpan bins) const override;

  private:
    SampleVec h;
};

/**
 * Full-frame receiver: consumes a frame whose start is known (from
 * the synchronizer or by construction), estimates the channel from
 * the long training symbols, decodes SIGNAL, then the payload.
 */
class PlcpReceiver
{
  public:
    /** @param rx_cfg Receiver config applied to the DATA section. */
    explicit PlcpReceiver(const OfdmReceiver::Config &rx_cfg =
                              OfdmReceiver::Config());

    /**
     * Receive a frame starting at @p frame (the first preamble
     * sample). Uses preamble-based per-bin channel estimation -- no
     * external CSI. A truncated frame is rejected, never fatal (see
     * PlcpRxResult).
     */
    PlcpRxResult receiveFrame(const SampleVec &frame);

  private:
    /** Per-bin channel estimate from the two long training symbols. */
    SampleVec estimateChannel(const SampleVec &frame) const;

    OfdmReceiver::Config cfg;
    /** One cached data receiver per rate (created on demand). */
    std::array<std::unique_ptr<OfdmReceiver>, kNumRates> data_rx;
};

} // namespace phy
} // namespace wilis

#endif // WILIS_PHY_PLCP_HH
