#include "decode/sova.hh"

#include <algorithm>
#include <array>
#include <limits>

#include "common/logging.hh"
#include "decode/trellis_kernels.hh"

namespace wilis {
namespace decode {

SovaDecoder::SovaDecoder(const Params &p)
    : tb_l(p.tracebackL), tb_k(p.tracebackK)
{}

void
SovaDecoder::decodeInto(SoftView soft, std::span<SoftDecision> out)
{
    wilis_assert(soft.size() % 2 == 0, "odd soft stream length %zu",
                 soft.size());
    const int steps = static_cast<int>(soft.size() / 2);
    wilis_assert(out.size() == static_cast<size_t>(steps),
                 "decision span size %zu for %d trellis steps",
                 out.size(), steps);
    const TrellisKernels trellis;

    // --- BMU + PMU sweep: record survivor choices, metric deltas and
    // the best state after each step.
    std::array<std::int32_t, kStates> pm;
    std::array<std::int32_t, kStates> pm_next;
    pm.fill(kMetricFloor);
    pm[0] = 0;

    choices.resize(static_cast<size_t>(steps));
    delta.resize(static_cast<size_t>(steps) * kStates);
    best_end.assign(static_cast<size_t>(steps) + 1, 0);
    std::int32_t bm[4];

    for (int j = 0; j < steps; ++j) {
        branchMetrics(soft[2 * static_cast<size_t>(j)],
                      soft[2 * static_cast<size_t>(j) + 1], bm);
        trellis.acsForward(pm.data(), bm, pm_next.data(),
                           choices[static_cast<size_t>(j)],
                           &delta[static_cast<size_t>(j) * kStates]);
        pm = pm_next;
        trellis.normalizeMetrics(pm.data());
        best_end[static_cast<size_t>(j) + 1] =
            trellis.bestState(pm.data());
    }

    auto survivor = [&](int state, int j) {
        int b = static_cast<int>(
            (choices[static_cast<size_t>(j)] >> state) & 1);
        return phy::ConvCode::predecessor(state, b);
    };

    // --- Sliding-window decisions (TU1 + TU2 of Figure 3).
    // One merge is examined per anchor time ta. TU1 locates the state
    // the ML path passes through at ta by tracing back tb_l steps from
    // the best state at ta + tb_l; near the terminated block end the
    // anchor is reached from the exactly known final state 0 instead.
    // The hard decision for step ta-1 is emitted at the anchor (the
    // windowed decision at lag l, as in hardware); too-short windows
    // therefore degrade the BER, exactly as a hardware traceback
    // would.
    rel.assign(static_cast<size_t>(steps),
               std::numeric_limits<std::int32_t>::max());

    for (int ta = 1; ta <= steps; ++ta) {
        int t = std::min(ta + tb_l, steps);
        int s = (t == steps) ? 0 : best_end[static_cast<size_t>(t)];
        for (int j = t - 1; j >= ta; --j)
            s = survivor(s, j);

        out[static_cast<size_t>(ta - 1)].bit =
            static_cast<Bit>(phy::ConvCode::inputOf(s));

        // Merge into state s at time ta: survivor vs competitor.
        int b = static_cast<int>(
            (choices[static_cast<size_t>(ta - 1)] >> s) & 1);
        std::int32_t dm =
            delta[static_cast<size_t>(ta - 1) * kStates + s];
        int s_best = phy::ConvCode::predecessor(s, b);
        int s_comp = phy::ConvCode::predecessor(s, 1 - b);

        // TU2: simultaneous traceback of both paths; wherever their
        // bit decisions differ, lower the soft decision to dm.
        const int j_lo = std::max(0, ta - 1 - tb_k);
        for (int j = ta - 2; j >= j_lo; --j) {
            if (s_best == s_comp)
                break; // paths merged; decisions identical onwards
            int bit_best = phy::ConvCode::inputOf(s_best);
            int bit_comp = phy::ConvCode::inputOf(s_comp);
            if (bit_best != bit_comp &&
                dm < rel[static_cast<size_t>(j)]) {
                rel[static_cast<size_t>(j)] = dm;
            }
            s_best = survivor(s_best, j);
            s_comp = survivor(s_comp, j);
        }
    }

    for (int j = 0; j < steps; ++j) {
        std::int32_t r = rel[static_cast<size_t>(j)];
        // Bits never contradicted within any window saturate at the
        // largest representable confidence.
        out[static_cast<size_t>(j)].llr =
            (r == std::numeric_limits<std::int32_t>::max())
                ? std::numeric_limits<double>::infinity()
                : static_cast<double>(r);
    }
}

int
SovaDecoder::pipelineLatencyCycles() const
{
    // Section 4.3.1: BMU (1) + PMU (1) + two traceback units (l, k)
    // + five 2-entry FIFOs (10) = l + k + 12.
    return tb_l + tb_k + 12;
}

} // namespace decode
} // namespace wilis
