#include "bcjr_reference.hh"

#include <algorithm>
#include <array>
#include <cmath>
#include <vector>

#include "decode/trellis_kernels.hh"

namespace wilis {
namespace decode {

namespace {

using Metrics = std::array<std::int32_t, kStates>;

/** Subtract the maximum; entries at or below floor / 2 pin to it. */
void
normalize(std::int32_t *pm)
{
    const std::int32_t mx = *std::max_element(pm, pm + kStates);
    for (int s = 0; s < kStates; ++s)
        pm[s] = pm[s] > kMetricFloor / 2 ? pm[s] - mx : kMetricFloor;
}

/** beta_out[s] = max over x of bm[out(s,x)] + beta[next(s,x)]. */
void
backwardStep(const TrellisTables &t, const Metrics &beta,
             const std::int32_t bm[4], Metrics &beta_out)
{
    for (int s = 0; s < kStates; ++s) {
        std::int32_t m0 = bm[t.fwdOut[s][0]] + beta[t.fwdNext[s][0]];
        std::int32_t m1 = bm[t.fwdOut[s][1]] + beta[t.fwdNext[s][1]];
        beta_out[s] = std::max(m0, m1);
    }
    normalize(beta_out.data());
}

} // namespace

void
bcjrMaxLogReference(SoftView soft, int block_len,
                    std::span<SoftDecision> out)
{
    const TrellisTables &t = TrellisTables::get();
    const int steps = static_cast<int>(soft.size() / 2);
    std::int32_t bm[4];
    auto metrics = [&](int j) {
        branchMetrics(soft[2 * static_cast<size_t>(j)],
                      soft[2 * static_cast<size_t>(j) + 1], bm);
    };

    // --- Forward PMU: alpha for every step boundary.
    std::vector<std::int32_t> alpha(
        (static_cast<size_t>(steps) + 1) * kStates, kMetricFloor);
    alpha[0] = 0; // trellis starts in state 0
    for (int j = 0; j < steps; ++j) {
        metrics(j);
        const std::int32_t *a = &alpha[static_cast<size_t>(j) * kStates];
        std::int32_t *a1 =
            &alpha[(static_cast<size_t>(j) + 1) * kStates];
        for (int s = 0; s < kStates; ++s) {
            std::int32_t m0 = a[phy::ConvCode::predecessor(s, 0)] +
                              bm[t.revOut[s][0]];
            std::int32_t m1 = a[phy::ConvCode::predecessor(s, 1)] +
                              bm[t.revOut[s][1]];
            a1[s] = m1 > m0 ? m1 : m0;
        }
        normalize(a1);
    }

    // --- Sliding-window backward passes + decision unit.
    Metrics beta;
    Metrics beta_prev;
    auto exact_end = [&] {
        beta.fill(kMetricFloor);
        beta[0] = 0; // terminated trellis ends in state 0
    };

    const int n = block_len;
    const int last_start = ((steps - 1) / n) * n;
    for (int w = last_start; w >= 0; w -= n) {
        const int w_end = std::min(w + n, steps);

        // Entry metric for this window's backward pass.
        if (w_end == steps) {
            exact_end();
        } else {
            // Provisional backward PMU over the following block,
            // seeded with the "uncertain" (uniform) metric.
            const int p_end = std::min(w_end + n, steps);
            if (p_end == steps)
                exact_end();
            else
                beta.fill(0);
            for (int j = p_end - 1; j >= w_end; --j) {
                metrics(j);
                backwardStep(t, beta, bm, beta_prev);
                beta = beta_prev;
            }
        }

        // Exact backward pass over [w, w_end) with the decision unit:
        // at step j, beta holds the metrics for boundary j+1.
        for (int j = w_end - 1; j >= w; --j) {
            metrics(j);
            const std::int32_t *a =
                &alpha[static_cast<size_t>(j) * kStates];
            std::int32_t best[2] = {kMetricFloor, kMetricFloor};
            for (int s = 0; s < kStates; ++s) {
                for (int x = 0; x < 2; ++x) {
                    best[x] = std::max(best[x],
                                       a[s] + bm[t.fwdOut[s][x]] +
                                           beta[t.fwdNext[s][x]]);
                }
            }
            std::int32_t llr = best[1] - best[0];
            out[static_cast<size_t>(j)].bit = llr > 0 ? 1 : 0;
            out[static_cast<size_t>(j)].llr =
                std::abs(static_cast<double>(llr));

            backwardStep(t, beta, bm, beta_prev);
            beta = beta_prev;
        }
    }
}

} // namespace decode
} // namespace wilis
