#include "decode/viterbi.hh"

#include <array>

#include "common/logging.hh"
#include "decode/trellis_kernels.hh"

namespace wilis {
namespace decode {

ViterbiDecoder::ViterbiDecoder(const Params &p) : tb_len(p.tracebackLen)
{}

void
ViterbiDecoder::decodeInto(SoftView soft, std::span<SoftDecision> out)
{
    wilis_assert(soft.size() % 2 == 0, "odd soft stream length %zu",
                 soft.size());
    const size_t steps = soft.size() / 2;
    wilis_assert(out.size() == steps,
                 "decision span size %zu for %zu trellis steps",
                 out.size(), steps);
    const TrellisKernels trellis;

    std::array<std::int32_t, kStates> pm;
    std::array<std::int32_t, kStates> pm_next;
    pm.fill(kMetricFloor);
    pm[0] = 0;

    choices.resize(steps);
    std::int32_t bm[4];

    for (size_t j = 0; j < steps; ++j) {
        branchMetrics(soft[2 * j], soft[2 * j + 1], bm);
        trellis.acsForward(pm.data(), bm, pm_next.data(), choices[j],
                           nullptr);
        pm = pm_next;
        trellis.normalizeMetrics(pm.data());
    }

    // Terminated trellis: trace back from state 0.
    int state = 0;
    for (size_t j = steps; j-- > 0;) {
        out[j].bit = static_cast<Bit>(phy::ConvCode::inputOf(state));
        out[j].llr = 0.0;
        int b = static_cast<int>((choices[j] >> state) & 1);
        state = phy::ConvCode::predecessor(state, b);
    }
}

int
ViterbiDecoder::pipelineLatencyCycles() const
{
    // BMU (1) + PMU (1) + traceback window + 3 connecting FIFOs of
    // depth 2 (section 4.3.1's accounting, minus the SOVA-only
    // second traceback unit and its FIFOs).
    return tb_len + 2 + 6;
}

} // namespace decode
} // namespace wilis
