#include "channel/fading.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numbers>

#include "common/kernels.hh"
#include "common/logging.hh"
#include "phy/ofdm_symbol.hh"

namespace wilis {
namespace channel {

JakesFader::JakesFader(double doppler_hz, std::uint64_t seed)
    : doppler(doppler_hz)
{
    wilis_assert(doppler_hz >= 0.0, "negative Doppler %f",
                 doppler_hz);
    // Deterministic oscillator bank (Clarke model): arrival angles
    // uniformly spread with a random rotation, independent random
    // phases for the in-phase and quadrature processes.
    SplitMix64 rng(seed ^ 0xFAD1116ull);
    double rot = rng.nextDouble() * 2.0 * std::numbers::pi;
    for (int m = 0; m < kOscillators; ++m) {
        double angle =
            2.0 * std::numbers::pi * (m + 0.5) / kOscillators + rot;
        freq_scale[static_cast<size_t>(m)] = std::cos(angle);
        phase_i[static_cast<size_t>(m)] =
            rng.nextDouble() * 2.0 * std::numbers::pi;
        phase_q[static_cast<size_t>(m)] =
            rng.nextDouble() * 2.0 * std::numbers::pi;
    }
}

Sample
JakesFader::gainAt(double t_us) const
{
    // Clarke sum-of-sinusoids with independent I/Q phase banks:
    // each component has variance M/2 before normalization, so
    // dividing by sqrt(M) yields E[|h|^2] = 1 and Rayleigh |h|.
    double t_s = t_us * 1e-6;
    double re = 0.0;
    double im = 0.0;
    for (int m = 0; m < kOscillators; ++m) {
        double w = 2.0 * std::numbers::pi * doppler *
                   freq_scale[static_cast<size_t>(m)] * t_s;
        re += std::cos(w + phase_i[static_cast<size_t>(m)]);
        im += std::cos(w + phase_q[static_cast<size_t>(m)]);
    }
    double norm = 1.0 / std::sqrt(static_cast<double>(kOscillators));
    return Sample(re * norm, im * norm);
}

double
JakesFader::powerBound(double horizon_us) const
{
    // Each pair sums to 2 cos(P) cos(.) with P = (phi_m + phi_m')/2,
    // so |sum| <= 2 |cos(P)| plus the drift of cos(P) in gainAt()'s
    // arithmetic: x |c_m + c_m'| from the unequal frequencies and
    // 3 eps x + 2 pi eps from rounding the arguments, x being the
    // largest |2 pi f_D t|. The 32 eps per pair also covers
    // rounding P, its cosine and this sum; 256 eps per component
    // covers gainAt()'s 16 cosines and 15 partial sums (<= 16).
    constexpr double eps = std::numeric_limits<double>::epsilon();
    const double x = 2.0 * std::numbers::pi * doppler * horizon_us *
                     1e-6 * (1.0 + 8.0 * eps);
    double amp_i = 256.0 * eps;
    double amp_q = 256.0 * eps;
    for (int m = 0; m < kOscillators / 2; ++m) {
        const size_t a = static_cast<size_t>(m);
        const size_t b = static_cast<size_t>(pairOf(m));
        const double slack =
            x * (std::fabs(freq_scale[a] + freq_scale[b]) +
                 4.0 * eps) +
            32.0 * eps;
        amp_i += 2.0 * std::fabs(std::cos(
                           0.5 * (phase_i[a] + phase_i[b]))) +
                 slack;
        amp_q += 2.0 * std::fabs(std::cos(
                           0.5 * (phase_q[a] + phase_q[b]))) +
                 slack;
    }
    // gainAt() scales by 1/sqrt(16) = 1/4 exactly; the factor
    // covers rounding both sums of squares.
    const double re = 0.25 * amp_i;
    const double im = 0.25 * amp_q;
    return std::min(32.0, (re * re + im * im) * (1.0 + 8.0 * eps));
}

double
JakesFader::pairingResidue() const
{
    double worst = 0.0;
    for (int m = 0; m < kOscillators / 2; ++m)
        worst = std::max(
            worst,
            std::fabs(freq_scale[static_cast<size_t>(m)] +
                      freq_scale[static_cast<size_t>(pairOf(m))]));
    return worst;
}

JakesPairForm::JakesPairForm(const JakesFader &fader)
    : two_pi_doppler(2.0 * std::numbers::pi * fader.doppler)
{
    // Per pair, gainAt()'s cos A + cos B with rounded arguments
    // A ~ x c_m + phi_m, B ~ x c_m' + phi_m' differs from the pair
    // form's cos(y + phi_m) + cos(-y + phi_m'), y ~ x c_m, by at most
    // |A - y - phi_m| + |B + y - phi_m'| <= x|c_m + c_m'| + 5 eps x +
    // 2 pi eps, x being |w|; the tabulated sums add <= 3 eps. The
    // bound takes 8 eps x and 16 eps per pair, which also covers |w|
    // being x rounded, and 512 eps for rounding the 16 cosines and
    // partial sums of gainAt() and the 8 sin/cos pairs and sums of
    // powerAt() (<= 136 eps and 112 eps).
    constexpr double eps = std::numeric_limits<double>::epsilon();
    slack_x = 0.0;
    slack_0 = 512.0 * eps;
    for (int m = 0; m < kPairs; ++m) {
        const size_t a = static_cast<size_t>(m);
        const size_t b = static_cast<size_t>(JakesFader::pairOf(m));
        freq_scale[a] = fader.freq_scale[a];
        cos_i[a] = std::cos(fader.phase_i[a]) + std::cos(fader.phase_i[b]);
        sin_i[a] = std::sin(fader.phase_i[a]) - std::sin(fader.phase_i[b]);
        cos_q[a] = std::cos(fader.phase_q[a]) + std::cos(fader.phase_q[b]);
        sin_q[a] = std::sin(fader.phase_q[a]) - std::sin(fader.phase_q[b]);
        slack_x += std::fabs(fader.freq_scale[a] + fader.freq_scale[b]) +
                   8.0 * eps;
        slack_0 += 16.0 * eps;
    }
}

PowerInterval
JakesPairForm::powerAt(double t_us) const
{
    // The same rounded t_s and 2 pi f_D as gainAt(): y and gainAt()'s
    // w c_m are both x c_m within two roundings.
    const double w = two_pi_doppler * (t_us * 1e-6);
    double re = 0.0;
    double im = 0.0;
    for (size_t m = 0; m < static_cast<size_t>(kPairs); ++m) {
        const double y = w * freq_scale[m];
        const double c = std::cos(y);
        const double s = std::sin(y);
        re += cos_i[m] * c - sin_i[m] * s;
        im += cos_q[m] * c - sin_q[m] * s;
    }
    // gainAt() scales both components by 1/4 exactly; the factors
    // cover rounding the bounds' squares and sums, and std::norm's.
    constexpr double eps = std::numeric_limits<double>::epsilon();
    const double err = 0.25 * (std::fabs(w) * slack_x + slack_0);
    const double re_abs = 0.25 * std::fabs(re);
    const double im_abs = 0.25 * std::fabs(im);
    const double re_lo = std::max(0.0, re_abs - err);
    const double im_lo = std::max(0.0, im_abs - err);
    const double re_hi = re_abs + err;
    const double im_hi = im_abs + err;
    return {(re_lo * re_lo + im_lo * im_lo) * (1.0 - 8.0 * eps),
            (re_hi * re_hi + im_hi * im_hi) * (1.0 + 8.0 * eps)};
}

RayleighChannel::RayleighChannel(const Params &p)
    : awgn(p.awgn), fader(p.dopplerHz, p.awgn.seed),
      packet_interval_us(p.packetIntervalUs),
      block_fading_(p.blockFading)
{}

Sample
RayleighChannel::gain(std::uint64_t packet_index,
                      int symbol_index) const
{
    // Block fading holds the gain for the whole packet (sampled at
    // the packet start); otherwise it evolves per OFDM symbol.
    double t_us = static_cast<double>(packet_index) *
                  packet_interval_us;
    if (!block_fading_)
        t_us += symbol_index * phy::OfdmGeometry::kSymbolUs;
    return gainAt(t_us);
}

void
RayleighChannel::apply(SampleSpan samples, std::uint64_t packet_index)
{
    // Flat fading: scale each OFDM symbol by its gain (one kernel
    // call per symbol run), then add white noise at the configured
    // level.
    const size_t sym_len =
        static_cast<size_t>(phy::OfdmGeometry::kSymbolLen);
    size_t i = 0;
    while (i < samples.size()) {
        const size_t symbol = i / sym_len;
        const size_t run =
            std::min((symbol + 1) * sym_len, samples.size()) - i;
        kernels::ops().scaleComplex(
            samples.data() + i, run,
            gain(packet_index, static_cast<int>(symbol)));
        i += run;
    }
    awgn.apply(samples, packet_index);
}

Sample
RayleighChannel::impairSample(Sample s, std::uint64_t packet_index,
                              std::uint64_t sample_index) const
{
    int symbol = static_cast<int>(
        sample_index /
        static_cast<std::uint64_t>(phy::OfdmGeometry::kSymbolLen));
    return awgn.impairSample(s * gain(packet_index, symbol),
                             packet_index, sample_index);
}

// ------------------------------------------------ AR(1) block fading

namespace {

/**
 * Bessel J0 via the Abramowitz & Stegun 9.4.1 / 9.4.3 polynomial
 * approximations (|error| < 1e-7); avoids relying on the optional
 * C++17 special-math functions.
 */
double
besselJ0(double x)
{
    double ax = std::fabs(x);
    if (ax < 3.0) {
        double t = x * x / 9.0;
        return 1.0 +
               t * (-2.2499997 +
                    t * (1.2656208 +
                         t * (-0.3163866 +
                              t * (0.0444479 +
                                   t * (-0.0039444 +
                                        t * 0.0002100)))));
    }
    double t = 3.0 / ax;
    double f0 = 0.79788456 +
                t * (-0.00000077 +
                     t * (-0.00552740 +
                          t * (-0.00009512 +
                               t * (0.00137237 +
                                    t * (-0.00072805 +
                                         t * 0.00014476)))));
    double theta = ax - 0.78539816 +
                   t * (-0.04166397 +
                        t * (-0.00003954 +
                             t * (0.00262573 +
                                  t * (-0.00054125 +
                                       t * (-0.00029333 +
                                            t * 0.00013558)))));
    return f0 * std::cos(theta) / std::sqrt(ax);
}

} // namespace

Ar1FadingChannel::Ar1FadingChannel(const Params &p)
    : awgn(p.awgn),
      innovations(CounterRng(p.awgn.seed ^ 0xA21FAD0ull).fork(0x1117))
{
    wilis_assert(!p.awgn.commonNoise, "ar1 has no common-noise mode");
    wilis_assert(p.dopplerHz >= 0.0, "negative Doppler %f", p.dopplerHz);
    wilis_assert(p.frameIntervalUs > 0.0, "frame interval %f us <= 0",
                 p.frameIntervalUs);
    // Clarke autocorrelation sampled at the slot interval. J0 goes
    // negative past its first zero (very fast fading); clamp to the
    // memoryless process there, and keep rho < 1 so the innovation
    // never degenerates even at doppler 0 -- a static link is then
    // rho ~ 1 with a vanishing innovation, which is the intent.
    double r = besselJ0(2.0 * std::numbers::pi * p.dopplerHz *
                        p.frameIntervalUs * 1e-6);
    rho_ = std::min(std::max(r, 0.0), 0.999999);
    innov_scale = std::sqrt(1.0 - rho_ * rho_);
}

Sample
Ar1FadingChannel::innovation(std::uint64_t n) const
{
    double g0 = 0.0;
    double g1 = 0.0;
    GaussianSource::pairAt(innovations, n, g0, g1);
    // Per-component variance 1/2 => E[|w|^2] = 1.
    return Sample(g0 * std::numbers::sqrt2 / 2.0,
                  g1 * std::numbers::sqrt2 / 2.0);
}

Sample
Ar1FadingChannel::gainAt(std::uint64_t n) const
{
    if (!cache_valid || n < cache_index) {
        cache_gain = innovation(0);
        cache_index = 0;
        cache_valid = true;
    }
    while (cache_index < n) {
        ++cache_index;
        cache_gain = cache_gain * rho_ +
                     innovation(cache_index) * innov_scale;
    }
    return cache_gain;
}

Sample
Ar1FadingChannel::gain(std::uint64_t packet_index,
                       int symbol_index) const
{
    (void)symbol_index;
    return gainAt(packet_index);
}

void
Ar1FadingChannel::apply(SampleSpan samples,
                        std::uint64_t packet_index)
{
    // Block fading: one gain for the whole frame, applied through
    // the SIMD kernel layer.
    kernels::ops().scaleComplex(samples.data(), samples.size(),
                                gainAt(packet_index));
    awgn.apply(samples, packet_index);
}

Sample
Ar1FadingChannel::impairSample(Sample s, std::uint64_t packet_index,
                               std::uint64_t sample_index) const
{
    return awgn.impairSample(s * gainAt(packet_index), packet_index,
                             sample_index);
}

} // namespace channel
} // namespace wilis
