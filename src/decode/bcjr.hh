/**
 * @file
 * Sliding-window BCJR decoder (SW-BCJR, Benedetto et al.), modeled on
 * the streaming hardware pipeline of Figure 4: a forward PMU, a
 * provisional backward PMU that estimates the entry metric of the
 * *next* block from a default "uncertain" state, an exact backward
 * PMU over reversed blocks (the pair of reversal buffers), and a
 * decision unit that picks the most likely input bit per step. The
 * SoftPHY extension subtracts the best '1'-path and best '0'-path
 * metrics to obtain the LLR -- a single extra subtracter.
 *
 * Pipeline latency is 2n + 7 cycles for block size n (section 4.3.2);
 * the reversal buffers dominate.
 *
 * The default arithmetic is max-log (as in the hardware); a log-MAP
 * variant with the exact max* correction is provided as "bcjr-logmap"
 * for accuracy ablations.
 */

#ifndef WILIS_DECODE_BCJR_HH
#define WILIS_DECODE_BCJR_HH

#include "decode/soft_decoder.hh"

namespace wilis {
namespace decode {

/** BcjrDecoder's parameters, one field per config key. */
struct BcjrParams {
    /** Key block_len: window size n (the paper needs n >= 32). */
    int blockLen = 64;
    /** Exact log-MAP arithmetic; the name "bcjr-logmap", not a key. */
    bool logMap = false;

    template <typename V>
    void visitKeys(V &v)
    {
        v("block_len", blockLen,
          li::within(phy::ConvCode::kConstraint, kMaxDecoderWindow));
    }
};

/** Sliding-window BCJR decoder with the Figure 4 microarchitecture. */
class BcjrDecoder : public SoftDecoder
{
  public:
    using Params = BcjrParams;
    explicit BcjrDecoder(const Params &p = {});

    std::string name() const override
    {
        return logmap ? "bcjr-logmap" : "bcjr";
    }
    bool producesSoftOutput() const override { return true; }
    void decodeInto(SoftView soft,
                    std::span<SoftDecision> out) override;
    int pipelineLatencyCycles() const override;

  private:
    void decodeMaxLog(SoftView soft, std::span<SoftDecision> out);
    void decodeLogMap(SoftView soft, std::span<SoftDecision> out);

    int block_len;
    bool logmap;
    // Forward-metric scratch, reused across blocks (max-log uses the
    // integer lattice, which only grows, log-MAP the double one).
    std::vector<std::int32_t> alpha_i;
    std::vector<double> alpha_d;
};

} // namespace decode
} // namespace wilis

#endif // WILIS_DECODE_BCJR_HH
