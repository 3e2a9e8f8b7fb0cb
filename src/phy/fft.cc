#include "phy/fft.hh"

#include <array>
#include <cmath>
#include <cstdint>
#include <mutex>
#include <numbers>
#include <vector>

#include "common/logging.hh"

namespace wilis {
namespace phy {

namespace {

/** Largest log2 of a size an int can hold. */
constexpr int kMaxLog2 = 30;

/** Storage behind one size's kernels::FftView. */
struct FftTables {
    std::vector<std::int32_t> swaps;
    std::vector<double> re[2];
    std::vector<double> im[2];
    kernels::FftView view;
};

void
build(FftTables &t, int log2n)
{
    const int n = 1 << log2n;
    for (int i = 0; i < n; ++i) {
        int r = 0;
        for (int b = 0; b < log2n; ++b)
            r |= ((i >> b) & 1) << (log2n - 1 - b);
        if (i < r) {
            t.swaps.push_back(i);
            t.swaps.push_back(r);
        }
    }

    // The stage spanning 2h points uses w_j = exp(-2*pi*i*k/n) at
    // k = j * n / 2h, evaluated as the size-n table always was, so
    // every twiddle carries the same bits; the inverse conjugates.
    for (int h = 1; h < n; h *= 2) {
        const int step = n / (2 * h);
        for (int j = 0; j < h; ++j) {
            const int k = j * step;
            const double ang = -2.0 * std::numbers::pi * k / n;
            const Sample w(std::cos(ang), std::sin(ang));
            const Sample wc = std::conj(w);
            for (int copy = 0; copy < 2; ++copy) {
                t.re[0].push_back(w.real());
                t.im[0].push_back(w.imag());
                t.re[1].push_back(wc.real());
                t.im[1].push_back(wc.imag());
            }
        }
    }

    t.view.n = n;
    t.view.swaps = t.swaps.data();
    t.view.numSwaps = static_cast<int>(t.swaps.size() / 2);
    for (int dir = 0; dir < 2; ++dir) {
        t.view.twRe[dir] = t.re[dir].data();
        t.view.twIm[dir] = t.im[dir].data();
    }
    t.view.scale = 1.0 / std::sqrt(static_cast<double>(n));
}

/** The tables of size 2^log2n, built by the first caller. */
const kernels::FftView *
tablesFor(int log2n)
{
    static std::array<std::once_flag, kMaxLog2 + 1> once;
    static std::array<FftTables, kMaxLog2 + 1> tables;
    std::call_once(once[static_cast<size_t>(log2n)],
                   [&] { build(tables[static_cast<size_t>(log2n)],
                               log2n); });
    return &tables[static_cast<size_t>(log2n)].view;
}

} // namespace

Fft::Fft(int size_)
{
    wilis_assert(size_ >= 2 && (size_ & (size_ - 1)) == 0,
                 "FFT size %d is not a power of two", size_);
    int log2n = 0;
    while ((1 << log2n) < size_)
        ++log2n;
    tables = tablesFor(log2n);
}

void
Fft::transform(SampleSpan x, bool invert) const
{
    wilis_assert(static_cast<int>(x.size()) == tables->n,
                 "FFT input size %zu != %d", x.size(), tables->n);
    kernels::ops().fft(*tables, invert, x.data());
}

void
Fft::forward(SampleSpan x) const
{
    transform(x, false);
}

void
Fft::inverse(SampleSpan x) const
{
    transform(x, true);
}

} // namespace phy
} // namespace wilis
