#include "phy/demapper.hh"

#include <cmath>

#include "common/fixed_point.hh"
#include "common/kernels.hh"
#include "common/logging.hh"

namespace wilis {
namespace phy {

Demapper::Demapper(Modulation mod_) : Demapper(mod_, Config()) {}

Demapper::Demapper(Modulation mod_, const Config &cfg_)
    : mod(mod_), cfg(cfg_)
{
    wilis_assert(cfg.softWidth >= 2 && cfg.softWidth <= 24,
                 "soft width %d out of range", cfg.softWidth);
    scale = cfg.applySnrScaling
                ? cfg.esN0 * modulationLlrScale(mod)
                : 1.0;
}

void
Demapper::axisMetrics(double v, double *m, int bits_per_axis) const
{
    // Simplified piecewise-linear metrics (Tosato-Bisaglia). The
    // constellation levels are at odd multiples of k_mod.
    switch (bits_per_axis) {
      case 1:
        m[0] = v;
        return;
      case 2: {
        const double k = 1.0 / std::sqrt(10.0);
        m[0] = v;
        m[1] = 2.0 * k - std::abs(v);
        return;
      }
      case 3: {
        const double k = 1.0 / std::sqrt(42.0);
        m[0] = v;
        m[1] = 4.0 * k - std::abs(v);
        m[2] = 2.0 * k - std::abs(std::abs(v) - 4.0 * k);
        return;
      }
      default:
        wilis_panic("unsupported bits per axis %d", bits_per_axis);
    }
}

int
Demapper::demapReal(Sample y, double *out) const
{
    double m[3];
    switch (mod) {
      case Modulation::BPSK:
        axisMetrics(y.real(), m, 1);
        out[0] = scale * m[0];
        return 1;
      case Modulation::QPSK:
        axisMetrics(y.real(), m, 1);
        out[0] = scale * m[0];
        axisMetrics(y.imag(), m, 1);
        out[1] = scale * m[0];
        return 2;
      case Modulation::QAM16:
        axisMetrics(y.real(), m, 2);
        out[0] = scale * m[0];
        out[1] = scale * m[1];
        axisMetrics(y.imag(), m, 2);
        out[2] = scale * m[0];
        out[3] = scale * m[1];
        return 4;
      case Modulation::QAM64:
        axisMetrics(y.real(), m, 3);
        out[0] = scale * m[0];
        out[1] = scale * m[1];
        out[2] = scale * m[2];
        axisMetrics(y.imag(), m, 3);
        out[3] = scale * m[0];
        out[4] = scale * m[1];
        out[5] = scale * m[2];
        return 6;
    }
    wilis_panic("bad modulation");
}

int
Demapper::demap(Sample y, SoftBit *out, double weight) const
{
    double metrics[6];
    int n = demapReal(y, metrics);
    for (int i = 0; i < n; ++i)
        out[i] = quantize(metrics[i] * weight, cfg.softWidth,
                          cfg.fullScale);
    return n;
}

void
Demapper::demapBatch(const Sample *ys, const double *weights,
                     size_t n, SoftBit *out) const
{
    // Modulation enumerators coincide with the kernel layer's
    // kDemap* kinds.
    kernels::ops().demapBatch(static_cast<int>(mod), ys, weights, n,
                              scale, cfg.softWidth, cfg.fullScale,
                              out);
}

} // namespace phy
} // namespace wilis
