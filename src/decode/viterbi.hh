/**
 * @file
 * Hard-output soft-input Viterbi decoder: the baseline commodity
 * 802.11a/g decoder of the paper's Figure 8 comparison. Produces no
 * usable LLR hints (llr = 0 for every bit).
 */

#ifndef WILIS_DECODE_VITERBI_HH
#define WILIS_DECODE_VITERBI_HH

#include "decode/soft_decoder.hh"

namespace wilis {
namespace decode {

/** ViterbiDecoder's parameters, one field per config key. */
struct ViterbiParams {
    /**
     * Key traceback_len: modeled hardware traceback window; affects
     * only the latency/area model (the kernel tracebacks the block).
     */
    int tracebackLen = 64;

    template <typename V>
    void visitKeys(V &v)
    {
        v("traceback_len", tracebackLen,
          li::within(phy::ConvCode::kConstraint, kMaxDecoderWindow));
    }
};

/** Block Viterbi decoder over the terminated K=7 trellis. */
class ViterbiDecoder : public SoftDecoder
{
  public:
    using Params = ViterbiParams;
    explicit ViterbiDecoder(const Params &p = {});

    std::string name() const override { return "viterbi"; }
    bool producesSoftOutput() const override { return false; }
    void decodeInto(SoftView soft,
                    std::span<SoftDecision> out) override;
    int pipelineLatencyCycles() const override;

  private:
    int tb_len;
    /** Survivor-choice scratch, reused across blocks. */
    std::vector<std::uint64_t> choices;
};

} // namespace decode
} // namespace wilis

#endif // WILIS_DECODE_VITERBI_HH
