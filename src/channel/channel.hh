/**
 * @file
 * Software channel model interface. In WiLIS the channel is the part
 * of the co-simulation that stays in software (section 1): it is
 * floating-point heavy and not amenable to FPGA implementation.
 *
 * All channels here are *replayable*: impairments are a pure function
 * of (seed, packet_index, sample_index), implemented with the
 * counter-based generator. This is the paper's "pseudo-random noise
 * model which allows us to test multiple packet transmissions at
 * various rates with the same noise and fading across time"
 * (section 4.4.2) -- the property the SoftRate oracle depends on.
 */

#ifndef WILIS_CHANNEL_CHANNEL_HH
#define WILIS_CHANNEL_CHANNEL_HH

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>

#include "common/types.hh"
#include "li/config.hh"
#include "li/registry.hh"

namespace wilis {
namespace channel {

/** A replayable software channel. */
class Channel
{
  public:
    virtual ~Channel() = default;

    /** Implementation name (matches the registry key). */
    virtual std::string name() const = 0;

    /**
     * Apply impairments to a packet's time-domain samples in place.
     * Deterministic in (seed, packet_index, sample position). The
     * span form is the zero-copy pipeline's entry point; SampleVec
     * arguments convert implicitly. Implementations must not
     * allocate in steady state (scratch lives in members).
     */
    virtual void apply(SampleSpan samples,
                       std::uint64_t packet_index) = 0;

    /**
     * Impair a single sample at a known position. Must agree
     * bit-exactly with apply() on the same positions -- this is what
     * lets the streaming latency-insensitive pipeline and the batch
     * kernel path produce identical packets.
     */
    virtual Sample impairSample(Sample s, std::uint64_t packet_index,
                                std::uint64_t sample_index) const = 0;

    /**
     * Flat complex channel gain of OFDM symbol @p symbol_index: one
     * gain per symbol. Frequency-selective channels report their DC
     * bin response.
     */
    virtual Sample
    gain(std::uint64_t packet_index, int symbol_index) const
    {
        (void)packet_index;
        (void)symbol_index;
        return Sample(1.0, 0.0);
    }

    /**
     * Channel state the receiver equalizes with (perfect CSI; the
     * paper models neither channel estimation nor synchronization):
     * the complex gain of every FFT bin of OFDM symbol
     * @p symbol_index, bin k written to @p bins[k] (64 bins).
     * Receivers ask once per symbol. Flat channels inherit this
     * default, which evaluates gain() once and fills every bin;
     * frequency-selective channels override it.
     */
    virtual void
    binGains(std::uint64_t packet_index, int symbol_index,
             SampleSpan bins) const
    {
        std::fill(bins.begin(), bins.end(),
                  gain(packet_index, symbol_index));
    }

    /** Noise variance N0 per complex sample (for eq. 3 scaling). */
    virtual double noiseVariance() const = 0;
};

/** Shorthand for the channel plug-n-play registry. */
using ChannelRegistry = li::Registry<Channel>;

/** The built-in channels; ChannelRegistry::global() is this. */
ChannelRegistry builtinRegistry(const Channel *);

/** Create a channel by registry name ("awgn", "rayleigh"). */
inline std::unique_ptr<Channel>
makeChannel(const std::string &name, const li::Config &cfg = li::Config())
{
    return ChannelRegistry::global().create(name, cfg);
}

} // namespace channel
} // namespace wilis

#endif // WILIS_CHANNEL_CHANNEL_HH
