#include "fft_reference.hh"

#include <cmath>
#include <numbers>
#include <utility>
#include <vector>

namespace wilis {
namespace phy {

void
fftReference(SampleSpan x, bool invert)
{
    const int n = static_cast<int>(x.size());
    int log2n = 0;
    while ((1 << log2n) < n)
        ++log2n;

    std::vector<Sample> twiddles(static_cast<size_t>(n / 2));
    for (int k = 0; k < n / 2; ++k) {
        double ang = -2.0 * std::numbers::pi * k / n;
        twiddles[static_cast<size_t>(k)] =
            Sample(std::cos(ang), std::sin(ang));
    }

    for (int i = 0; i < n; ++i) {
        int j = 0;
        for (int b = 0; b < log2n; ++b)
            j |= ((i >> b) & 1) << (log2n - 1 - b);
        if (i < j)
            std::swap(x[static_cast<size_t>(i)],
                      x[static_cast<size_t>(j)]);
    }

    for (int len = 2; len <= n; len <<= 1) {
        int half = len >> 1;
        int step = n / len;
        for (int i = 0; i < n; i += len) {
            for (int j = 0; j < half; ++j) {
                Sample w = twiddles[static_cast<size_t>(j * step)];
                if (invert)
                    w = std::conj(w);
                Sample u = x[static_cast<size_t>(i + j)];
                Sample v = x[static_cast<size_t>(i + j + half)] * w;
                x[static_cast<size_t>(i + j)] = u + v;
                x[static_cast<size_t>(i + j + half)] = u - v;
            }
        }
    }

    double scale = 1.0 / std::sqrt(static_cast<double>(n));
    for (auto &v : x)
        v *= scale;
}

} // namespace phy
} // namespace wilis
