#include "decode/bcjr.hh"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>

#include "common/logging.hh"
#include "decode/trellis_kernels.hh"

namespace wilis {
namespace decode {

BcjrDecoder::BcjrDecoder(const Params &p)
    : block_len(p.blockLen), logmap(p.logMap)
{}

void
BcjrDecoder::decodeInto(SoftView soft, std::span<SoftDecision> out)
{
    wilis_assert(soft.size() % 2 == 0, "odd soft stream length %zu",
                 soft.size());
    wilis_assert(out.size() == soft.size() / 2,
                 "decision span size %zu for %zu trellis steps",
                 out.size(), soft.size() / 2);
    if (logmap)
        decodeLogMap(soft, out);
    else
        decodeMaxLog(soft, out);
}

void
BcjrDecoder::decodeMaxLog(SoftView soft, std::span<SoftDecision> out)
{
    // One kernel call runs the whole Figure 4 pipeline: forward PMU,
    // provisional and exact backward PMUs, decision unit.
    const size_t steps = soft.size() / 2;
    const size_t lattice = (steps + 1) * kStates;
    if (alpha_i.size() < lattice)
        alpha_i.resize(lattice);
    std::fill_n(alpha_i.begin(), kStates, kMetricFloor);
    alpha_i[0] = 0; // trellis starts in state 0
    kernels::ops().bcjrMaxLog(TrellisTables::view(), soft.data(),
                              static_cast<int>(steps), block_len,
                              kMetricFloor, alpha_i.data(), out.data());
}

void
BcjrDecoder::decodeLogMap(SoftView soft, std::span<SoftDecision> out)
{
    const int steps = static_cast<int>(soft.size() / 2);
    const TrellisTables &t = TrellisTables::get();
    const double kFloor = -1e18;

    auto maxstar = [](double a, double b) {
        double mx = std::max(a, b);
        if (mx <= -1e17)
            return mx;
        return mx + std::log1p(std::exp(-std::abs(a - b)));
    };

    // Branch metrics as correlations of the (integer) soft inputs.
    auto gamma = [&](int j, int o) {
        double la0 = static_cast<double>(soft[2 * static_cast<size_t>(j)]);
        double la1 =
            static_cast<double>(soft[2 * static_cast<size_t>(j) + 1]);
        return ((o & 1) ? la0 : -la0) + ((o & 2) ? la1 : -la1);
    };

    std::vector<double> &alpha = alpha_d;
    alpha.assign((static_cast<size_t>(steps) + 1) * kStates, kFloor);
    alpha[0] = 0.0;
    for (int j = 0; j < steps; ++j) {
        double *a_j = &alpha[static_cast<size_t>(j) * kStates];
        double *a_j1 = &alpha[(static_cast<size_t>(j) + 1) * kStates];
        for (int s = 0; s < kStates; ++s) {
            int p0 = phy::ConvCode::predecessor(s, 0);
            int p1 = phy::ConvCode::predecessor(s, 1);
            double m0 = a_j[p0] + gamma(j, t.revOut[s][0]);
            double m1 = a_j[p1] + gamma(j, t.revOut[s][1]);
            a_j1[s] = maxstar(m0, m1);
        }
        double mx = *std::max_element(a_j1, a_j1 + kStates);
        for (int s = 0; s < kStates; ++s)
            a_j1[s] = std::max(a_j1[s] - mx, kFloor);
    }

    std::array<double, kStates> beta;
    std::array<double, kStates> beta_prev;

    auto exact_end = [&](std::array<double, kStates> &b) {
        b.fill(kFloor);
        b[0] = 0.0;
    };
    auto beta_step = [&](int j) {
        for (int s = 0; s < kStates; ++s) {
            double m0 = beta[t.fwdNext[s][0]] + gamma(j, t.fwdOut[s][0]);
            double m1 = beta[t.fwdNext[s][1]] + gamma(j, t.fwdOut[s][1]);
            beta_prev[s] = maxstar(m0, m1);
        }
        double mx = *std::max_element(beta_prev.begin(),
                                      beta_prev.end());
        for (int s = 0; s < kStates; ++s)
            beta[s] = std::max(beta_prev[s] - mx, kFloor);
    };

    const int n = block_len;
    const int last_start = ((steps - 1) / n) * n;
    for (int w = last_start; w >= 0; w -= n) {
        const int w_end = std::min(w + n, steps);
        if (w_end == steps) {
            exact_end(beta);
        } else {
            const int p_end = std::min(w_end + n, steps);
            if (p_end == steps)
                exact_end(beta);
            else
                beta.fill(0.0);
            for (int j = p_end - 1; j >= w_end; --j)
                beta_step(j);
        }

        for (int j = w_end - 1; j >= w; --j) {
            const double *a_j =
                &alpha[static_cast<size_t>(j) * kStates];
            double acc1 = kFloor;
            double acc0 = kFloor;
            for (int s = 0; s < kStates; ++s) {
                double c0 = a_j[s] + gamma(j, t.fwdOut[s][0]) +
                            beta[t.fwdNext[s][0]];
                double c1 = a_j[s] + gamma(j, t.fwdOut[s][1]) +
                            beta[t.fwdNext[s][1]];
                acc0 = maxstar(acc0, c0);
                acc1 = maxstar(acc1, c1);
            }
            double llr = acc1 - acc0;
            out[static_cast<size_t>(j)].bit = llr > 0 ? 1 : 0;
            out[static_cast<size_t>(j)].llr = std::abs(llr);
            beta_step(j);
        }
    }
}

int
BcjrDecoder::pipelineLatencyCycles() const
{
    // Section 4.3.2: two reversal buffers of size n dominate, plus
    // pipeline and FIFO stages: 2n + 7.
    return 2 * block_len + 7;
}

} // namespace decode
} // namespace wilis
