/**
 * @file
 * Kernel bodies of the runtime-dispatched SIMD layer, written ONCE
 * against the portable packed types in common/simd.hh and compiled
 * twice, by kernels_scalar.cc and kernels_avx2.cc (each defines
 * WILIS_SIMD_LEVEL and is built with the matching -m flags). The
 * one-lane instantiation of every loop IS the scalar reference:
 * there is no separate "reference implementation" to drift from.
 *
 * Bit-exactness discipline (see the policy note in kernels.hh):
 *  - integer kernels use the same i32 arithmetic at every level;
 *  - f64 kernels use only IEEE-exact ops in the same order as the
 *    scalar expressions they replace (demapper axis metrics, complex
 *    multiply as mul/mul/sub + mul/mul/add, quantization as
 *    div -> mul -> round-to-nearest -> clamp);
 *  - vector tails fall back to scalar expressions that are textually
 *    identical to the lane computation.
 *
 * The ACS kernels additionally rely on the shift-register butterfly
 * asserted by decode/trellis_kernels.cc:
 *   pred0[s] = 2*(s % (n/2)),  pred1[s] = pred0[s] + 1,
 *   next0[s] = s / 2,          next1[s] = n/2 + s / 2,
 * and the BCJR kernel on complementary branch outputs,
 *   revOut1[s] = revOut0[s] ^ 3,  fwdOut1[s] = fwdOut0[s] ^ 3,
 * so the second branch metric of every butterfly is the negated
 * first (bm[o ^ 3] == -bm[o], see decode::branchMetrics()).
 *
 * libm policy: kernel bodies may call at most one transcendental
 * per lane and only from the whitelist on the next line, which the
 * determinism linter (tools/wilis_lint.py, CI lint job) parses and
 * enforces -- every listed function is required to be IEEE-exact or
 * used identically in the scalar tail and the vector lane, so the
 * backends cannot drift. Extending the whitelist is a policy
 * change: update this directive AND the bit-exactness argument in
 * docs/ARCHITECTURE.md together.
 *
 * wilis-lint: kernel-libm-whitelist: exp floor log log10 nearbyint sqrt
 */

#ifndef WILIS_COMMON_KERNELS_IMPL_HH
#define WILIS_COMMON_KERNELS_IMPL_HH

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>

#include "common/kernels.hh"
#include "common/simd.hh"

namespace wilis {
namespace kernels {
namespace WILIS_SIMD_NS {

using simd::WILIS_SIMD_NS::VecF64;
using simd::WILIS_SIMD_NS::VecI32;
using simd::WILIS_SIMD_NS::VecU64;

using i32 = std::int32_t;
using u8 = std::uint8_t;
using u64 = std::uint64_t;

// ---------------------------------------------------------- trellis

inline void
acsForwardKernel(const TrellisView &tv, const i32 *pm_in,
                 const i32 bm[4], i32 *pm_out, u64 *choices,
                 i32 *delta)
{
    const int n = tv.nStates;
    const int half = n / 2;
    constexpr int L = VecI32::kLanes;
    u64 ch = 0;
    for (int s = 0; s < n; s += L) {
        VecI32 m0, m1;
        VecI32::deinterleave(pm_in + 2 * (s & (half - 1)), &m0, &m1);
        m0 = m0 + VecI32::lookup4(bm, VecI32::load(tv.revOut0 + s));
        m1 = m1 + VecI32::lookup4(bm, VecI32::load(tv.revOut1 + s));
        VecI32 mask = VecI32::gtMask(m1, m0);
        VecI32::blend(m0, m1, mask).store(pm_out + s);
        ch |= static_cast<u64>(mask.moveMask()) << s;
        if (delta)
            VecI32::abs(m1 - m0).store(delta + s);
    }
    *choices = ch;
}

inline void
normalizeMetricsKernel(i32 *pm, int n, i32 floor_threshold,
                       i32 floor_value)
{
    constexpr int L = VecI32::kLanes;
    VecI32 mv = VecI32::load(pm);
    for (int s = L; s < n; s += L)
        mv = VecI32::max(mv, VecI32::load(pm + s));
    const VecI32 vmx = VecI32::broadcast(mv.reduceMax());
    const VecI32 thr = VecI32::broadcast(floor_threshold);
    const VecI32 fl = VecI32::broadcast(floor_value);
    for (int s = 0; s < n; s += L) {
        VecI32 p = VecI32::load(pm + s);
        // Keep impossible states pinned at the floor.
        VecI32 mask = VecI32::gtMask(p, thr);
        VecI32::blend(fl, p - vmx, mask).store(pm + s);
    }
}

inline int
bestStateKernel(const i32 *pm, int n)
{
    constexpr int L = VecI32::kLanes;
    VecI32 mv = VecI32::load(pm);
    for (int s = L; s < n; s += L)
        mv = VecI32::max(mv, VecI32::load(pm + s));
    const i32 mx = mv.reduceMax();
    for (int s = 0; s < n; ++s) {
        if (pm[s] == mx)
            return s;
    }
    return 0;
}

// ------------------------------------------------ whole-block BCJR

/**
 * Largest max|soft| for which bcjrMaxLogKernel may normalize without
 * the floor clamp. Once every state is live, the pre-normalization
 * metrics of a step are at least -22 * max|soft| (the derivation is
 * in docs/ARCHITECTURE.md, "The whole-block BCJR kernel"); the clamp
 * never fires while that stays above the threshold floor / 2.
 */
inline i32
clampFreeMaxSoft(i32 floor)
{
    return (-(floor / 2) - 1) / 22;
}

/**
 * Steps a clamp-free metric row may go between normalizations when
 * max|soft| is @p max_soft. The row maximum never falls from one
 * step to the next (of the two branches out of, or into, the best
 * state one carries +|bm|) and rises by at most 2 * max_soft, so a
 * row k steps past its last normalization holds metrics at most
 * 2 * max_soft * k. The largest sum the kernel forms, alpha + bm +
 * beta with both rows K - 1 steps out, is 2 * max_soft * (2K - 1):
 * K is the largest period that keeps it in int32 (the derivation is
 * in docs/ARCHITECTURE.md, "The whole-block BCJR kernel").
 */
inline int
deferredNormPeriod(i32 max_soft)
{
    constexpr i32 kMax = std::numeric_limits<i32>::max();
    if (max_soft == 0)
        return kMax;
    return (kMax / (2 * max_soft) + 1) / 2;
}

/**
 * One scan of a block's @p count soft values: deferredNormPeriod() of
 * their max|soft|, or 0 when one exceeds clampFreeMaxSoft() and every
 * step normalizes with the clamp.
 */
inline int
bcjrPeriod(const SoftBit *soft, int count, i32 floor)
{
    constexpr int L = VecI32::kLanes;
    VecI32 vhi = VecI32::broadcast(0);
    VecI32 vlo = vhi;
    int i = 0;
    for (; i + L <= count; i += L) {
        const VecI32 x = VecI32::load(soft + i);
        vhi = VecI32::max(vhi, x);
        vlo = VecI32::min(vlo, x);
    }
    i32 lanes[L];
    vlo.store(lanes);
    i32 hi = vhi.reduceMax();
    i32 lo = *std::min_element(lanes, lanes + L);
    for (; i < count; ++i) {
        hi = std::max(hi, soft[i]);
        lo = std::min(lo, soft[i]);
    }
    const i32 bound = clampFreeMaxSoft(floor);
    if (hi > bound || lo < -bound)
        return 0;
    return deferredNormPeriod(std::max(hi, -lo));
}

/**
 * Per-state signs of the branch metric of 2-bit output @p out[s],
 * bm[o] = (o & 1 ? p0 : -p0) + (o & 2 ? p1 : -p1) -- the
 * decode::branchMetrics() table -- so a vector of metrics is two
 * applySign() and an add, with no table permute.
 */
inline void
bcjrSigns(const i32 *out, int n, i32 *sign0, i32 *sign1)
{
    for (int s = 0; s < n; ++s) {
        sign0[s] = (out[s] & 1) ? 1 : -1;
        sign1[s] = (out[s] & 2) ? 1 : -1;
    }
}

/** Branch metrics of kLanes states from their sign vectors. */
inline VecI32
bcjrMetric(VecI32 p0, VecI32 p1, const i32 *sign0, const i32 *sign1)
{
    return VecI32::applySign(p0, VecI32::load(sign0)) +
           VecI32::applySign(p1, VecI32::load(sign1));
}

/** Subtract the maximum from each of @p n metrics (no floor pin). */
inline void
bcjrShift(i32 *pm, int n)
{
    constexpr int L = VecI32::kLanes;
    VecI32 mv = VecI32::load(pm);
    for (int s = L; s < n; s += L)
        mv = VecI32::max(mv, VecI32::load(pm + s));
    const VecI32 vmx = VecI32::broadcast(mv.reduceMax());
    for (int s = 0; s < n; s += L)
        (VecI32::load(pm + s) - vmx).store(pm + s);
}

/**
 * One backward step, beta_out[s] = max over x of (bm[fwdOut_x[s]] +
 * beta[next_x[s]]), with the branch metric of input 1 the negated
 * metric of input 0 and next_x[s] = x * n/2 + s / 2: one load of
 * kLanes successor metrics feeds two vectors of states through
 * dupLow() and dupHigh(). With @p kDecide the decision unit runs on
 * the same sums: *best_x = max(floor, max over s of alpha[s] +
 * bm[fwdOut_x[s]] + beta[next_x[s]]).
 */
template <bool kDecide>
inline void
bcjrBackwardStep(int n, const i32 *sign0, const i32 *sign1, VecI32 p0,
                 VecI32 p1, const i32 *beta, i32 *beta_out,
                 const i32 *alpha, i32 floor, i32 *best0, i32 *best1)
{
    const int half = n / 2;
    constexpr int L = VecI32::kLanes;
    VecI32 acc0 = VecI32::broadcast(floor);
    VecI32 acc1 = acc0;
    auto states = [&](int s, VecI32 next0, VecI32 next1) {
        const VecI32 c = bcjrMetric(p0, p1, sign0 + s, sign1 + s);
        const VecI32 t0 = next0 + c;
        const VecI32 t1 = next1 - c;
        VecI32::max(t0, t1).store(beta_out + s);
        if constexpr (kDecide) {
            const VecI32 a = VecI32::load(alpha + s);
            acc0 = VecI32::max(acc0, a + t0);
            acc1 = VecI32::max(acc1, a + t1);
        }
    };
    for (int s = 0; s < n; s += 2 * L) {
        const VecI32 b0 = VecI32::load(beta + s / 2);
        const VecI32 b1 = VecI32::load(beta + half + s / 2);
        states(s, b0.dupLow(), b1.dupLow());
        states(s + L, b0.dupHigh(), b1.dupHigh());
    }
    if constexpr (kDecide) {
        *best0 = acc0.reduceMax();
        *best1 = acc1.reduceMax();
    }
}

inline void
bcjrMaxLogKernel(const TrellisView &tv, const SoftBit *soft, int steps,
                 int block_len, i32 floor, i32 *alpha, SoftDecision *out)
{
    if (steps <= 0)
        return;
    const int n = tv.nStates;
    const int half = n / 2;
    constexpr int L = VecI32::kLanes;
    // Steps from a single live state (the trellis start, or an exact
    // end) until every state is live: log2(n), the code memory.
    int mem = 0;
    while ((1 << mem) < n)
        ++mem;
    const i32 thr = floor / 2;

    const int period = bcjrPeriod(soft, 2 * steps, floor);
    const bool clamp_free = period > 0;

    // A row that may hold impossible states is normalized with the
    // floor pin at every step. A clamp-free row is shifted by its
    // maximum every `period` steps, and whenever @p exact asks: a
    // deferred shift raises every sum of a decision alike, which
    // cancels in best1 - best0 unless the floor seed of best_x wins
    // in one of them (docs/ARCHITECTURE.md).
    auto normalize = [&](i32 *row, bool clamp, bool exact, int &since) {
        if (clamp) {
            normalizeMetricsKernel(row, n, thr, floor);
            since = 0;
        } else if (++since >= period || exact) {
            bcjrShift(row, n);
            since = 0;
        }
    };

    constexpr int kMaxStates = 64; // the K = 7 trellis
    i32 rev_sign[2][kMaxStates / 2];
    i32 fwd_sign[2][kMaxStates];
    bcjrSigns(tv.revOut0, half, rev_sign[0], rev_sign[1]);
    bcjrSigns(tv.fwdOut0, n, fwd_sign[0], fwd_sign[1]);

    // --- Forward recursion. Arrival states s and s + n/2 share the
    // predecessor pair (2 * (s % (n/2)), +1), so one deinterleave
    // feeds both; the choice-1 metric is the negated choice-0 one
    // (complementary outputs), and so is the metric into s + n/2
    // from the same predecessor. BCJR keeps no survivor choices, so
    // the ACS is max-only. The decisions of the last mem steps see a
    // beta with pinned states, where every sum of best_x can sit at
    // or below the floor, so their alpha rows are normalized exactly.
    int since = 0;
    for (int j = 0; j < steps; ++j) {
        const VecI32 p0 = VecI32::broadcast(soft[2 * j]);
        const VecI32 p1 = VecI32::broadcast(soft[2 * j + 1]);
        const i32 *a = alpha + static_cast<size_t>(j) * n;
        i32 *a1 = alpha + (static_cast<size_t>(j) + 1) * n;
        for (int s = 0; s < half; s += L) {
            VecI32 e, o;
            VecI32::deinterleave(a + 2 * s, &e, &o);
            const VecI32 b =
                bcjrMetric(p0, p1, rev_sign[0] + s, rev_sign[1] + s);
            VecI32::max(e + b, o - b).store(a1 + s);
            VecI32::max(e - b, o + b).store(a1 + half + s);
        }
        normalize(a1, !clamp_free || j < mem, j + 1 >= steps - mem,
                  since);
    }

    // --- Sliding-window backward passes, last window first.
    i32 buf[2][kMaxStates];
    i32 *beta = buf[0];
    i32 *next = buf[1];
    int live = 0; // backward steps since the last exact end
    auto exact_end = [&] {
        for (int s = 0; s < n; ++s)
            beta[s] = floor;
        beta[0] = 0; // terminated trellis ends in state 0
        live = 0;
        since = 0;
    };
    // Normalize the step's output into beta. A deferred beta needs
    // no exact rows: it is all live, so the best alpha state's sums
    // stay above the floor in every decision.
    auto advance = [&] {
        normalize(next, !clamp_free || live < mem, false, since);
        ++live;
        i32 *t = beta;
        beta = next;
        next = t;
    };
    for (int w = ((steps - 1) / block_len) * block_len; w >= 0;
         w -= block_len) {
        const int w_end = std::min(w + block_len, steps);
        if (w_end == steps) {
            exact_end();
        } else {
            // Provisional pass over the following window, seeded with
            // the uniform ("uncertain") metric: every state is live.
            const int p_end = std::min(w_end + block_len, steps);
            if (p_end == steps) {
                exact_end();
            } else {
                for (int s = 0; s < n; ++s)
                    beta[s] = 0;
                live = mem;
                since = 0;
            }
            for (int j = p_end - 1; j >= w_end; --j) {
                bcjrBackwardStep<false>(
                    n, fwd_sign[0], fwd_sign[1],
                    VecI32::broadcast(soft[2 * j]),
                    VecI32::broadcast(soft[2 * j + 1]), beta, next,
                    nullptr, floor, nullptr, nullptr);
                advance();
            }
        }
        // Exact pass with the decision unit: at step j, beta holds
        // the metrics of boundary j + 1.
        for (int j = w_end - 1; j >= w; --j) {
            i32 best0 = floor;
            i32 best1 = floor;
            bcjrBackwardStep<true>(
                n, fwd_sign[0], fwd_sign[1],
                VecI32::broadcast(soft[2 * j]),
                VecI32::broadcast(soft[2 * j + 1]), beta, next,
                alpha + static_cast<size_t>(j) * n, floor, &best0, &best1);
            advance();
            const i32 llr = best1 - best0;
            out[j].bit = llr > 0 ? 1 : 0;
            out[j].llr = static_cast<double>(llr < 0 ? -llr : llr);
        }
    }
}

// -------------------------------------------------------------- FFT

/**
 * Butterflies on the complexes of @p a and @p x with twiddles
 * (@p wr, @p wi) per complex: addsub of (x * wr, swap(x) * wi) is
 * (xr*wr - xi*wi, xi*wr + xr*wi), the scalar product, then (a + p,
 * a - p), times @p vs when kScale.
 */
template <bool kScale>
inline void
fftButterflies(VecF64 a, VecF64 x, VecF64 wr, VecF64 wi, VecF64 vs,
               VecF64 *top, VecF64 *bot)
{
    const VecF64 p = VecF64::addsub(x * wr, x.swapPairs() * wi);
    *top = a + p;
    *bot = a - p;
    if constexpr (kScale) {
        *top = *top * vs;
        *bot = *bot * vs;
    }
}

/**
 * One radix-2 stage over @p n complexes (interleaved in @p d) whose
 * butterflies span 2h points, with the stage's twiddles @p wr / @p wi
 * (each value stored twice, see FftView): v = x[k + h] * w as
 * (xr*wr - xi*wi, xr*wi + xi*wr), then (u + v, u - v), times @p scale
 * when kScale. A vector holds kLanes / 2 complexes. At two per
 * vector the h = 1 stage splits two groups by lane pairs; the scalar
 * level runs the scalar twin of the lane expressions.
 */
template <bool kScale>
inline void
fftStage(double *d, int n, int h, const double *wr, const double *wi,
         double scale)
{
    constexpr int C = VecF64::kLanes / 2;
    const VecF64 vs = VecF64::broadcast(scale);
    if (C == 2 && h == 1 && n >= 4) {
        const VecF64 vwr = VecF64::broadcast(wr[0]);
        const VecF64 vwi = VecF64::broadcast(wi[0]);
        for (int i = 0; i < n; i += 4) {
            const VecF64 a = VecF64::load(d + 2 * i);
            const VecF64 b = VecF64::load(d + 2 * i + 4);
            VecF64 top, bot;
            fftButterflies<kScale>(VecF64::lowPairs(a, b),
                                   VecF64::highPairs(a, b), vwr, vwi, vs,
                                   &top, &bot);
            VecF64::lowPairs(top, bot).store(d + 2 * i);
            VecF64::highPairs(top, bot).store(d + 2 * i + 4);
        }
        return;
    }
    for (int i = 0; i < n; i += 2 * h) {
        double *u = d + 2 * i;
        double *x = u + 2 * h;
        int j = 0;
        if (C > 0 && h >= C) {
            for (; j < h; j += C) {
                VecF64 top, bot;
                fftButterflies<kScale>(
                    VecF64::load(u + 2 * j), VecF64::load(x + 2 * j),
                    VecF64::load(wr + 2 * j), VecF64::load(wi + 2 * j),
                    vs, &top, &bot);
                top.store(u + 2 * j);
                bot.store(x + 2 * j);
            }
        }
        for (; j < h; ++j) {
            const double xr = x[2 * j];
            const double xi = x[2 * j + 1];
            const double vr = xr * wr[2 * j] - xi * wi[2 * j];
            const double vi = xr * wi[2 * j] + xi * wr[2 * j];
            const double ur = u[2 * j];
            const double ui = u[2 * j + 1];
            if constexpr (kScale) {
                u[2 * j] = (ur + vr) * scale;
                u[2 * j + 1] = (ui + vi) * scale;
                x[2 * j] = (ur - vr) * scale;
                x[2 * j + 1] = (ui - vi) * scale;
            } else {
                u[2 * j] = ur + vr;
                u[2 * j + 1] = ui + vi;
                x[2 * j] = ur - vr;
                x[2 * j + 1] = ui - vi;
            }
        }
    }
}

inline void
fftKernel(const FftView &tv, bool inverse, Sample *x)
{
    for (int k = 0; k < tv.numSwaps; ++k)
        std::swap(x[tv.swaps[2 * k]], x[tv.swaps[2 * k + 1]]);
    const int n = tv.n;
    double *d = reinterpret_cast<double *>(x);
    const double *tr = tv.twRe[inverse ? 1 : 0];
    const double *ti = tv.twIm[inverse ? 1 : 0];
    // The unitary scale rides on the last stage's outputs: the same
    // products as a separate pass over the result.
    for (int h = 1; h < n; h *= 2) {
        const size_t off = 2 * static_cast<size_t>(h - 1);
        if (2 * h == n)
            fftStage<true>(d, n, h, tr + off, ti + off, tv.scale);
        else
            fftStage<false>(d, n, h, tr + off, ti + off, tv.scale);
    }
}

// --------------------------------------------------------- demapper

/**
 * Quantize lanes of real metrics: x / full_scale * max_code, round
 * to nearest even, clamp -- the vector form of common/fixed_point.hh
 * quantize().
 */
inline VecF64
quantizeLanes(VecF64 x, VecF64 full_scale, VecF64 max_code,
              VecF64 min_code)
{
    VecF64 r = VecF64::roundNearest(x / full_scale * max_code);
    return VecF64::max(VecF64::min(r, max_code), min_code);
}

/** Scalar tail twin of quantizeLanes (same expressions, one lane). */
inline i32
quantizeOne(double x, double full_scale, double max_code,
            double min_code)
{
    double r = std::nearbyint(x / full_scale * max_code);
    if (r > max_code)
        return static_cast<i32>(max_code);
    if (r < min_code)
        return static_cast<i32>(min_code);
    return static_cast<i32>(r);
}

inline void
demapBatchKernel(int mod_kind, const Sample *ys,
                 const double *weights, size_t n, double scale,
                 int soft_width, double full_scale, SoftBit *out)
{
    const double *yd = reinterpret_cast<const double *>(ys);
    const double max_code_d =
        static_cast<double>((1 << (soft_width - 1)) - 1);
    const double min_code_d =
        static_cast<double>(-(1 << (soft_width - 1)));
    constexpr int L = VecF64::kLanes;
    const VecF64 vfs = VecF64::broadcast(full_scale);
    const VecF64 vmax = VecF64::broadcast(max_code_d);
    const VecF64 vmin = VecF64::broadcast(min_code_d);
    const VecF64 vscale = VecF64::broadcast(scale);
    const VecF64 vone = VecF64::broadcast(1.0);

    auto weight = [&](size_t i) {
        return weights ? VecF64::load(weights + i) : vone;
    };
    auto q = [&](VecF64 metric, VecF64 w) {
        return quantizeLanes((vscale * metric) * w, vfs, vmax, vmin);
    };
    auto qs = [&](double metric, double w) {
        return quantizeOne((scale * metric) * w, full_scale,
                           max_code_d, min_code_d);
    };

    size_t i = 0;
    switch (mod_kind) {
      case kDemapBpsk: {
        for (; i + L <= n; i += L) {
            i32 tmp[L];
            q(VecF64::loadEven(yd + 2 * i), weight(i)).storeAsI32(tmp);
            for (int l = 0; l < L; ++l)
                out[i + l] = tmp[l];
        }
        for (; i < n; ++i) {
            double w = weights ? weights[i] : 1.0;
            out[i] = qs(yd[2 * i], w);
        }
        return;
      }
      case kDemapQpsk: {
        for (; i + L <= n; i += L) {
            VecF64 w = weight(i);
            i32 tre[L], tim[L];
            q(VecF64::loadEven(yd + 2 * i), w).storeAsI32(tre);
            q(VecF64::loadOdd(yd + 2 * i), w).storeAsI32(tim);
            for (int l = 0; l < L; ++l) {
                out[2 * (i + l)] = tre[l];
                out[2 * (i + l) + 1] = tim[l];
            }
        }
        for (; i < n; ++i) {
            double w = weights ? weights[i] : 1.0;
            out[2 * i] = qs(yd[2 * i], w);
            out[2 * i + 1] = qs(yd[2 * i + 1], w);
        }
        return;
      }
      case kDemapQam16: {
        const double k = 1.0 / std::sqrt(10.0);
        const double c2 = 2.0 * k;
        const VecF64 vc2 = VecF64::broadcast(c2);
        for (; i + L <= n; i += L) {
            VecF64 w = weight(i);
            VecF64 re = VecF64::loadEven(yd + 2 * i);
            VecF64 im = VecF64::loadOdd(yd + 2 * i);
            i32 t[4][L];
            q(re, w).storeAsI32(t[0]);
            q(vc2 - VecF64::abs(re), w).storeAsI32(t[1]);
            q(im, w).storeAsI32(t[2]);
            q(vc2 - VecF64::abs(im), w).storeAsI32(t[3]);
            for (int l = 0; l < L; ++l) {
                SoftBit *o = out + 4 * (i + l);
                o[0] = t[0][l];
                o[1] = t[1][l];
                o[2] = t[2][l];
                o[3] = t[3][l];
            }
        }
        for (; i < n; ++i) {
            double w = weights ? weights[i] : 1.0;
            double re = yd[2 * i];
            double im = yd[2 * i + 1];
            SoftBit *o = out + 4 * i;
            o[0] = qs(re, w);
            o[1] = qs(c2 - std::abs(re), w);
            o[2] = qs(im, w);
            o[3] = qs(c2 - std::abs(im), w);
        }
        return;
      }
      case kDemapQam64: {
        const double k = 1.0 / std::sqrt(42.0);
        const double c4 = 4.0 * k;
        const double c2 = 2.0 * k;
        const VecF64 vc4 = VecF64::broadcast(c4);
        const VecF64 vc2 = VecF64::broadcast(c2);
        for (; i + L <= n; i += L) {
            VecF64 w = weight(i);
            VecF64 re = VecF64::loadEven(yd + 2 * i);
            VecF64 im = VecF64::loadOdd(yd + 2 * i);
            VecF64 are = VecF64::abs(re);
            VecF64 aim = VecF64::abs(im);
            i32 t[6][L];
            q(re, w).storeAsI32(t[0]);
            q(vc4 - are, w).storeAsI32(t[1]);
            q(vc2 - VecF64::abs(are - vc4), w).storeAsI32(t[2]);
            q(im, w).storeAsI32(t[3]);
            q(vc4 - aim, w).storeAsI32(t[4]);
            q(vc2 - VecF64::abs(aim - vc4), w).storeAsI32(t[5]);
            for (int l = 0; l < L; ++l) {
                SoftBit *o = out + 6 * (i + l);
                for (int b = 0; b < 6; ++b)
                    o[b] = t[b][l];
            }
        }
        for (; i < n; ++i) {
            double w = weights ? weights[i] : 1.0;
            double re = yd[2 * i];
            double im = yd[2 * i + 1];
            SoftBit *o = out + 6 * i;
            o[0] = qs(re, w);
            o[1] = qs(c4 - std::abs(re), w);
            o[2] = qs(c2 - std::abs(std::abs(re) - c4), w);
            o[3] = qs(im, w);
            o[4] = qs(c4 - std::abs(im), w);
            o[5] = qs(c2 - std::abs(std::abs(im) - c4), w);
        }
        return;
      }
    }
}

// ---------------------------------------------------------- channel

inline void
scaleComplexKernel(Sample *s, size_t n, Sample h)
{
    const double hr = h.real();
    const double hi = h.imag();
    constexpr int L = VecF64::kLanes;
    double *d = reinterpret_cast<double *>(s);
    const size_t total = 2 * n;
    size_t i = 0;
    if (L > 1) {
        // (re, im) pairs in lanes: a = v*hr, b = swap(v)*hi,
        // addsub -> (re*hr - im*hi, im*hr + re*hi), the exact
        // product/sum set of the scalar complex multiply.
        const VecF64 vhr = VecF64::broadcast(hr);
        const VecF64 vhi = VecF64::broadcast(hi);
        for (; i + L <= total; i += L) {
            VecF64 v = VecF64::load(d + i);
            VecF64::addsub(v * vhr, v.swapPairs() * vhi)
                .store(d + i);
        }
    }
    for (; i < total; i += 2) {
        double re = d[i];
        double im = d[i + 1];
        d[i] = re * hr - im * hi;
        d[i + 1] = im * hr + re * hi;
    }
}

inline void
axpyNoiseKernel(Sample *s, size_t n, double sigma,
                const double *gauss)
{
    constexpr int L = VecF64::kLanes;
    double *d = reinterpret_cast<double *>(s);
    const size_t total = 2 * n;
    const VecF64 vsig = VecF64::broadcast(sigma);
    size_t i = 0;
    for (; i + L <= total; i += L) {
        (VecF64::load(d + i) + vsig * VecF64::load(gauss + i))
            .store(d + i);
    }
    for (; i < total; ++i)
        d[i] = d[i] + sigma * gauss[i];
}

// ---------------------------------- SoA analytic-engine kernels
//
// Batched twins of the multi-cell analytic fast path's scalar
// expressions (Ops doc comments in kernels.hh give the contract).
// The integer counter mixing -- the CounterRng recipe from
// common/random.hh -- runs in u64 lanes, where exactness is free.
// Everything that touches a libm transcendental (log, log10, exp,
// floor) stays ONE scalar call per lane in every backend, because
// vectorized transcendental approximations would break the
// bit-exactness guarantee the engine equivalence tests pin.

/** Scalar twin of CounterRng::at(counter) for key @p key. */
inline u64
mixKeyedOne(u64 key, u64 counter)
{
    u64 z = key + 0x9e3779b97f4a7c15ull * (counter + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z ^= key >> 32;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/** Lane form of mixKeyedOne: kLanes keys, one shared counter. */
inline VecU64
mixKeyedLanes(VecU64 keys, u64 counter)
{
    VecU64 z = keys +
               VecU64::broadcast(0x9e3779b97f4a7c15ull * (counter + 1));
    z = VecU64::mulLo(z ^ z.template shr<30>(),
                      VecU64::broadcast(0xbf58476d1ce4e5b9ull));
    z = z ^ keys.template shr<32>();
    z = VecU64::mulLo(z ^ z.template shr<27>(),
                      VecU64::broadcast(0x94d049bb133111ebull));
    return z ^ z.template shr<31>();
}

/** CounterRng::doubleAt's raw-bits -> [0, 1) conversion. */
inline double
u01FromBits(u64 bits)
{
    return static_cast<double>(bits >> 11) * 0x1.0p-53;
}

inline void
sinrAccumBatchKernel(const double *const *gain_rows,
                     const i32 *serving, const u64 *fade_keys,
                     const u8 *active, int cells, u64 t,
                     const double *sig, size_t n, double zero_sinr_db,
                     double *sinr_db)
{
    constexpr int L = VecU64::kLanes;
    const u64 base = t * static_cast<u64>(cells);
    u64 bits[L];
    size_t i = 0;
    for (; i + L <= n; i += L) {
        // Interference accumulates per lane in the same ascending
        // cell order as the per-user oracle's scalar loop (FP
        // addition is order-sensitive); only the counter mixing
        // vectorizes across the block's entries.
        double interf[L] = {};
        const VecU64 keys = VecU64::load(fade_keys + i);
        for (int c = 0; c < cells; ++c) {
            if (!active[c])
                continue;
            mixKeyedLanes(keys, base + static_cast<u64>(c))
                .store(bits);
            for (int l = 0; l < L; ++l) {
                if (serving[i + l] == c)
                    continue;
                double u = 1.0 - u01FromBits(bits[l]);
                if (u < 1e-300)
                    u = 1e-300;
                const double fade = -std::log(u);
                interf[l] = interf[l] + gain_rows[i + l][c] * fade;
            }
        }
        for (int l = 0; l < L; ++l) {
            const double lin = sig[i + l] / (1.0 + interf[l]);
            sinr_db[i + l] =
                lin > 0.0 ? 10.0 * std::log10(lin) : zero_sinr_db;
        }
    }
    for (; i < n; ++i) {
        double interf = 0.0;
        for (int c = 0; c < cells; ++c) {
            if (!active[c] || serving[i] == c)
                continue;
            double u = 1.0 -
                       u01FromBits(mixKeyedOne(
                           fade_keys[i], base + static_cast<u64>(c)));
            if (u < 1e-300)
                u = 1e-300;
            const double fade = -std::log(u);
            interf = interf + gain_rows[i][c] * fade;
        }
        const double lin = sig[i] / (1.0 + interf);
        sinr_db[i] = lin > 0.0 ? 10.0 * std::log10(lin) : zero_sinr_db;
    }
}

/**
 * Per-entry core of perDrawBatch: textual twin of
 * CalibrationTable::lerpCoords() + per() + pberFeedback() plus the
 * Bernoulli frame draw from AnalyticLink::drawAt(), reading the
 * flattened table rows instead of calling back into softphy.
 */
inline void
perDrawOne(const PerTableView &tv, i32 rate, double snr, u64 bits,
           u8 *ok, double *pber)
{
    const double x = (snr - tv.snrLoDb) / tv.snrStepDb - 0.5;
    int b0, b1;
    double frac;
    if (x <= 0.0) {
        b0 = b1 = 0;
        frac = 0.0;
    } else if (x >= static_cast<double>(tv.numBins - 1)) {
        b0 = b1 = tv.numBins - 1;
        frac = 0.0;
    } else {
        b0 = static_cast<int>(std::floor(x));
        b1 = b0 + 1;
        frac = x - static_cast<double>(b0);
    }
    const int row = rate * tv.numBins;
    const double p0 = tv.per[row + b0];
    const double p1 = tv.per[row + b1];
    const double per = p0 + (p1 - p0) * frac;
    const bool frame_ok = u01FromBits(bits) >= per;
    const double *logs = frame_ok ? tv.logPberOk : tv.logPberBad;
    const double l0 = logs[row + b0];
    const double l1 = logs[row + b1];
    *ok = frame_ok ? 1 : 0;
    *pber = std::exp(l0 + (l1 - l0) * frac);
}

inline void
perDrawBatchKernel(const PerTableView &tv, const i32 *rates,
                   const double *snr_db, const u64 *keys, u64 t,
                   size_t n, u8 *ok, double *pber)
{
    constexpr int L = VecU64::kLanes;
    u64 bits[L];
    size_t i = 0;
    for (; i + L <= n; i += L) {
        mixKeyedLanes(VecU64::load(keys + i), t).store(bits);
        for (int l = 0; l < L; ++l)
            perDrawOne(tv, rates[i + l], snr_db[i + l], bits[l],
                       ok + i + l, pber + i + l);
    }
    for (; i < n; ++i)
        perDrawOne(tv, rates[i], snr_db[i], mixKeyedOne(keys[i], t),
                   ok + i, pber + i);
}

inline void
pfDecayKernel(double *avg, size_t n, double a, i32 granted,
              double served_bits)
{
    constexpr int L = VecF64::kLanes;
    const double keep = 1.0 - a;
    // Compute the granted element from its pre-decay value first,
    // exactly as the scheduler's single-pass scalar loop would.
    double g = 0.0;
    if (granted >= 0)
        g = keep * avg[granted] + a * served_bits;
    const VecF64 vkeep = VecF64::broadcast(keep);
    const VecF64 vzero = VecF64::broadcast(a * 0.0);
    size_t i = 0;
    for (; i + L <= n; i += L)
        (vkeep * VecF64::load(avg + i) + vzero).store(avg + i);
    for (; i < n; ++i)
        avg[i] = keep * avg[i] + a * 0.0;
    if (granted >= 0)
        avg[granted] = g;
}

// -------------------------------------------------------- the table

#if WILIS_SIMD_LEVEL == 2
inline constexpr Backend kBackend = Backend::Avx2;
#else
inline constexpr Backend kBackend = Backend::Scalar;
#endif

inline const Ops kOps = {
    kBackend,
    &acsForwardKernel,
    &bcjrMaxLogKernel,
    &normalizeMetricsKernel,
    &bestStateKernel,
    &demapBatchKernel,
    &fftKernel,
    &scaleComplexKernel,
    &axpyNoiseKernel,
    &sinrAccumBatchKernel,
    &perDrawBatchKernel,
    &pfDecayKernel,
};

} // namespace WILIS_SIMD_NS
} // namespace kernels
} // namespace wilis

#endif // WILIS_COMMON_KERNELS_IMPL_HH
