/**
 * @file
 * Soft-Output Viterbi Algorithm decoder, modeled on the two-traceback
 * hardware architecture of Figure 3 (Berrou et al., ICC'93): a shared
 * BMU/PMU, a first traceback unit of length l that locates a reliable
 * state, and a second traceback unit of length k that performs two
 * simultaneous tracebacks (best and competitor path) and updates the
 * per-bit soft decisions with the Hagenauer rule
 * rel[j] = min(rel[j], delta) wherever the two paths' decisions
 * differ.
 *
 * Pipeline latency is l + k + 12 cycles (section 4.3.1): one cycle
 * each for BMU and PMU plus five 2-entry FIFOs.
 */

#ifndef WILIS_DECODE_SOVA_HH
#define WILIS_DECODE_SOVA_HH

#include "decode/soft_decoder.hh"

namespace wilis {
namespace decode {

/** SovaDecoder's parameters, one field per config key. */
struct SovaParams {
    /** Key traceback_l: first traceback unit length. */
    int tracebackL = 64;
    /** Key traceback_k: second traceback unit length. */
    int tracebackK = 64;

    template <typename V>
    void visitKeys(V &v)
    {
        v("traceback_l", tracebackL,
          li::within(phy::ConvCode::kConstraint, kMaxDecoderWindow));
        v("traceback_k", tracebackK, li::within(1, kMaxDecoderWindow));
    }
};

/** SOVA decoder with the Figure 3 two-traceback microarchitecture. */
class SovaDecoder : public SoftDecoder
{
  public:
    using Params = SovaParams;
    explicit SovaDecoder(const Params &p = {});

    std::string name() const override { return "sova"; }
    bool producesSoftOutput() const override { return true; }
    void decodeInto(SoftView soft,
                    std::span<SoftDecision> out) override;
    int pipelineLatencyCycles() const override;

  private:
    int tb_l;
    int tb_k;
    // Per-block scratch, reused across blocks (no steady-state
    // allocations).
    std::vector<std::uint64_t> choices;
    std::vector<std::int32_t> delta;
    std::vector<int> best_end;
    std::vector<std::int32_t> rel;
};

} // namespace decode
} // namespace wilis

#endif // WILIS_DECODE_SOVA_HH
