/**
 * @file
 * Frequency-selective multipath Rayleigh channel: L discrete taps
 * with an exponential power-delay profile, each tap an independent
 * Jakes process. This is the "multipath induced fading" impairment
 * the paper's introduction lists; the 16-sample cyclic prefix
 * absorbs delay spreads up to 800 ns at 20 MHz, and the receiver
 * equalizes per subcarrier with perfect CSI.
 *
 * Unlike the flat channels, different subcarriers see different
 * gains, so the 802.11a interleaver's frequency spreading actually
 * matters -- deep notches hit isolated coded bits instead of runs.
 */

#ifndef WILIS_CHANNEL_MULTIPATH_HH
#define WILIS_CHANNEL_MULTIPATH_HH

#include <array>
#include <memory>
#include <vector>

#include "channel/awgn.hh"
#include "channel/channel.hh"
#include "channel/fading.hh"
#include "phy/ofdm_symbol.hh"

namespace wilis {
namespace channel {

/** MultipathChannel's parameters, one field per config key. */
struct MultipathParams {
    /** Most taps: delays 0..kCpLen stay within the cyclic prefix. */
    static constexpr int kMaxTaps = phy::OfdmGeometry::kCpLen + 1;

    /** Keys snr_db (mean Es/N0), seed, threads, common_noise. */
    AwgnParams awgn = {};
    /** Key doppler_hz: Doppler of every tap process. */
    double dopplerHz = 20.0;
    /** Key num_taps: taps, at delays 0..num_taps-1 within the prefix. */
    int numTaps = 4;
    /** Key delay_spread: RMS delay spread in samples. */
    double delaySpread = 3.0;
    /** Key packet_interval_us: packet start spacing. */
    double packetIntervalUs = 2000.0;

    template <typename V>
    void visitKeys(V &v)
    {
        awgn.visitKeys(v);
        v("doppler_hz", dopplerHz, li::atLeast(0.0));
        v("num_taps", numTaps, li::within(1, kMaxTaps));
        v("delay_spread", delaySpread, li::above(0.0));
        v("packet_interval_us", packetIntervalUs, li::above(0.0));
    }
};

/** L-tap frequency-selective Rayleigh channel + AWGN. */
class MultipathChannel : public Channel
{
  public:
    using Params = MultipathParams;
    explicit MultipathChannel(const Params &p = {});

    std::string name() const override { return "multipath"; }
    void apply(SampleSpan samples, std::uint64_t packet_index) override;
    Sample impairSample(Sample s, std::uint64_t packet_index,
                        std::uint64_t sample_index) const override;
    Sample gain(std::uint64_t packet_index,
                int symbol_index) const override;
    /** Evaluates each tap once, then sums it per bin. */
    void binGains(std::uint64_t packet_index, int symbol_index,
                  SampleSpan bins) const override;
    double noiseVariance() const override
    {
        return awgn.noiseVariance();
    }

    /** Number of taps. */
    int numTaps() const { return static_cast<int>(taps.size()); }

    /** Complex value of tap @p l for @p symbol of @p packet. */
    Sample tapValue(std::uint64_t packet_index, int symbol_index,
                    int l) const;

  private:
    /** One symbol's tap values, tap l at [l]. */
    using TapValues = std::array<Sample, Params::kMaxTaps>;

    /** Every tap's value for @p symbol_index of @p packet_index. */
    TapValues tapValues(std::uint64_t packet_index,
                        int symbol_index) const;

    /** H[bin] = sum_l h_l e^{-j 2 pi bin d_l / N} for taps @p h. */
    Sample binResponse(const TapValues &h, int bin) const;

    struct Tap {
        /** Sample delay. */
        int delay;
        /** Amplitude weight (sqrt of PDP share). */
        double weight;
        /** Unit-power Rayleigh process for this tap. */
        std::unique_ptr<RayleighChannel> process;
    };

    AwgnChannel awgn;
    std::vector<Tap> taps;
    /** e^{-j 2 pi bin d_l / N} at [bin * numTaps() + l]. */
    std::vector<Sample> twiddle;

    // Streaming state for impairSample(): a per-packet delay line.
    mutable SampleVec history;
    mutable std::uint64_t history_packet = ~0ull;
    mutable std::uint64_t history_next = 0;
};

} // namespace channel
} // namespace wilis

#endif // WILIS_CHANNEL_MULTIPATH_HH
