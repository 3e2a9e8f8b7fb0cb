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

/** Block Viterbi decoder over the terminated K=7 trellis. */
class ViterbiDecoder : public SoftDecoder
{
  public:
    /**
     * Config keys:
     *  - traceback_len: modeled hardware traceback window, 7 to
     *    kMaxDecoderWindow (default 64); affects only the
     *    latency/area model, the software kernel always tracebacks
     *    the full block.
     */
    explicit ViterbiDecoder(const li::Config &cfg = li::Config());

    std::string name() const override { return "viterbi"; }
    bool producesSoftOutput() const override { return false; }
    void decodeInto(SoftView soft,
                    std::span<SoftDecision> out) override;
    int pipelineLatencyCycles() const override;

    /** Modeled traceback window length. */
    int tracebackLen() const { return tb_len; }

  private:
    int tb_len;
    /** Survivor-choice scratch, reused across blocks. */
    std::vector<std::uint64_t> choices;
};

} // namespace decode
} // namespace wilis

#endif // WILIS_DECODE_VITERBI_HH
