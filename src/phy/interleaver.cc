#include "phy/interleaver.hh"

#include <algorithm>

#include "common/logging.hh"

namespace wilis {
namespace phy {

Interleaver::Interleaver(Modulation mod)
{
    int n_bpsc = bitsPerSubcarrier(mod);
    n_cbps = 48 * n_bpsc;
    int s = std::max(n_bpsc / 2, 1);

    fwd.resize(static_cast<size_t>(n_cbps));
    inv.resize(static_cast<size_t>(n_cbps));

    for (int k = 0; k < n_cbps; ++k) {
        // First permutation (17-18).
        int i = (n_cbps / 16) * (k % 16) + (k / 16);
        // Second permutation (17-19).
        int j = s * (i / s) +
                (i + n_cbps - (16 * i) / n_cbps) % s;
        fwd[static_cast<size_t>(k)] = j;
    }
    for (int k = 0; k < n_cbps; ++k)
        inv[static_cast<size_t>(fwd[static_cast<size_t>(k)])] = k;
}

void
Interleaver::deinterleave(SoftView in, SoftSpan out) const
{
    wilis_assert(static_cast<int>(in.size()) == n_cbps,
                 "deinterleave block size %zu != N_CBPS %d", in.size(),
                 n_cbps);
    wilis_assert(out.size() == in.size(),
                 "deinterleave output span size %zu", out.size());
    for (int j = 0; j < n_cbps; ++j)
        out[static_cast<size_t>(inv[static_cast<size_t>(j)])] =
            in[static_cast<size_t>(j)];
}

void
Interleaver::interleaveStream(BitView in, BitSpan out) const
{
    wilis_assert(in.size() % static_cast<size_t>(n_cbps) == 0,
                 "stream length %zu not a multiple of N_CBPS %d",
                 in.size(), n_cbps);
    wilis_assert(out.size() == in.size(),
                 "interleave output span size %zu", out.size());
    for (size_t base = 0; base < in.size();
         base += static_cast<size_t>(n_cbps)) {
        for (int k = 0; k < n_cbps; ++k) {
            out[base + static_cast<size_t>(
                           fwd[static_cast<size_t>(k)])] =
                in[base + static_cast<size_t>(k)];
        }
    }
}

} // namespace phy
} // namespace wilis
