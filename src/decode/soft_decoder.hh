/**
 * @file
 * Common interface for the convolutional decoders (hard Viterbi,
 * SOVA, BCJR). Implementations are registered with the plug-n-play
 * registry under the names "viterbi", "sova", "bcjr" and
 * "bcjr-logmap", so pipelines select a microarchitecture purely by
 * configuration -- the property WiLIS section 2 ("Plug-n-Play")
 * advertises.
 */

#ifndef WILIS_DECODE_SOFT_DECODER_HH
#define WILIS_DECODE_SOFT_DECODER_HH

#include <memory>
#include <string>
#include <span>

#include "common/types.hh"
#include "li/config.hh"
#include "li/registry.hh"
#include "phy/conv_code.hh"

namespace wilis {
namespace decode {

/**
 * Block decoder for the terminated K=7 rate-1/2 802.11a code.
 *
 * Input is a depunctured rate-1/2 soft stream: two quantized soft
 * values per trellis step, positive favouring coded bit = 1, zero
 * meaning erasure. The trellis is assumed to start and end in state 0
 * (the encoder appends tail bits). decodeInto() writes one
 * SoftDecision per trellis step, including the tail steps; callers
 * strip the tail.
 */
class SoftDecoder
{
  public:
    /** Virtual destructor for registry-owned instances. */
    virtual ~SoftDecoder() = default;

    /** Implementation name (matches the registry key). */
    virtual std::string name() const = 0;

    /** True if llr hints are meaningful (false for hard Viterbi). */
    virtual bool producesSoftOutput() const = 0;

    /**
     * Decode one terminated block into caller-owned storage.
     * @param soft 2*T soft values for a T-step trellis.
     * @param out  Exactly T decision slots.
     *
     * Implementations keep their metric scratch in members, so a
     * warmed-up decoder performs no heap allocations per block.
     */
    virtual void decodeInto(SoftView soft,
                            std::span<SoftDecision> out) = 0;

    /**
     * Decode latency of the modeled hardware pipeline, in cycles of
     * the decoder clock (section 4.3: SOVA l+k+12, BCJR 2n+7).
     */
    virtual int pipelineLatencyCycles() const = 0;
};

/**
 * Largest decoder window a config may ask for, in trellis steps: far
 * past any packet, small enough for the latency formulas' int.
 */
constexpr int kMaxDecoderWindow = 1 << 20;

/** Shorthand for the decoder plug-n-play registry. */
using DecoderRegistry = li::Registry<SoftDecoder>;

/** The built-in decoders; DecoderRegistry::global() is this. */
DecoderRegistry builtinRegistry(const SoftDecoder *);

/** Create a decoder by registry name. */
inline std::unique_ptr<SoftDecoder>
makeDecoder(const std::string &name, const li::Config &cfg = li::Config())
{
    return DecoderRegistry::global().create(name, cfg);
}

} // namespace decode
} // namespace wilis

#endif // WILIS_DECODE_SOFT_DECODER_HH
