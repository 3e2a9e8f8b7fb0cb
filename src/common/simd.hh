/**
 * @file
 * Portable packed-vector layer under the runtime-dispatched kernels
 * (common/kernels.hh). One set of small wrapper types -- VecF64,
 * VecI32, VecU64 -- is compiled per backend level:
 *
 *   WILIS_SIMD_LEVEL 0  scalar reference   (1 f64 / 1 i32 lane)
 *   WILIS_SIMD_LEVEL 2  AVX2               (4 f64 / 8 i32 lanes)
 *
 * Each backend translation unit defines WILIS_SIMD_LEVEL before
 * including this header (and is compiled with the matching -m
 * flags); the types land in a level-specific namespace
 * (simd::simd_scalar / simd::simd_avx2) so the two instantiations
 * never collide across translation units.
 *
 * Every operation here is IEEE-exact (add, sub, mul, div, abs, min,
 * max, round-to-nearest-even, integer arithmetic), which is what
 * makes the kernel layer's bit-exactness guarantee possible: a
 * kernel written against these wrappers computes identical bits at
 * every level. No FMA contraction is ever emitted -- products and
 * sums stay separate instructions, matching the scalar code compiled
 * for the baseline target.
 */

#ifndef WILIS_COMMON_SIMD_HH
#define WILIS_COMMON_SIMD_HH

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>

#ifndef WILIS_SIMD_LEVEL
#define WILIS_SIMD_LEVEL 0
#endif

#if WILIS_SIMD_LEVEL == 2
#if !defined(__AVX2__)
#error "WILIS_SIMD_LEVEL == 2 requires -mavx2"
#endif
#include <immintrin.h>
#define WILIS_SIMD_NS simd_avx2
#else
#define WILIS_SIMD_NS simd_scalar
#endif

namespace wilis {
namespace simd {
namespace WILIS_SIMD_NS {

// ------------------------------------------------------------- VecF64

/** Packed f64 lanes (1 / 4 by level). */
struct VecF64 {
#if WILIS_SIMD_LEVEL == 2
    static constexpr int kLanes = 4;
    __m256d v;

    static VecF64 load(const double *p) { return {_mm256_loadu_pd(p)}; }
    static VecF64 broadcast(double x) { return {_mm256_set1_pd(x)}; }
    void store(double *p) const { _mm256_storeu_pd(p, v); }

    /** Lane i <- p[2i] (e.g. real parts of interleaved complexes). */
    static VecF64
    loadEven(const double *p)
    {
        __m256d a = _mm256_loadu_pd(p);
        __m256d b = _mm256_loadu_pd(p + 4);
        return {_mm256_permute4x64_pd(_mm256_unpacklo_pd(a, b),
                                      _MM_SHUFFLE(3, 1, 2, 0))};
    }

    /** Lane i <- p[2i + 1]. */
    static VecF64
    loadOdd(const double *p)
    {
        __m256d a = _mm256_loadu_pd(p);
        __m256d b = _mm256_loadu_pd(p + 4);
        return {_mm256_permute4x64_pd(_mm256_unpackhi_pd(a, b),
                                      _MM_SHUFFLE(3, 1, 2, 0))};
    }

    friend VecF64
    operator+(VecF64 a, VecF64 b)
    {
        return {_mm256_add_pd(a.v, b.v)};
    }
    friend VecF64
    operator-(VecF64 a, VecF64 b)
    {
        return {_mm256_sub_pd(a.v, b.v)};
    }
    friend VecF64
    operator*(VecF64 a, VecF64 b)
    {
        return {_mm256_mul_pd(a.v, b.v)};
    }
    friend VecF64
    operator/(VecF64 a, VecF64 b)
    {
        return {_mm256_div_pd(a.v, b.v)};
    }

    static VecF64
    abs(VecF64 a)
    {
        return {_mm256_andnot_pd(_mm256_set1_pd(-0.0), a.v)};
    }
    static VecF64 min(VecF64 a, VecF64 b) { return {_mm256_min_pd(a.v, b.v)}; }
    static VecF64 max(VecF64 a, VecF64 b) { return {_mm256_max_pd(a.v, b.v)}; }
    /** Round to nearest even (matches std::nearbyint defaults). */
    static VecF64
    roundNearest(VecF64 a)
    {
        return {_mm256_round_pd(
            a.v, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC)};
    }

    /** Swap adjacent lanes: (0,1,2,3) -> (1,0,3,2). */
    VecF64 swapPairs() const { return {_mm256_permute_pd(v, 0x5)}; }
    /** Lane i: even i -> a[i] - b[i], odd i -> a[i] + b[i]. */
    static VecF64
    addsub(VecF64 a, VecF64 b)
    {
        return {_mm256_addsub_pd(a.v, b.v)};
    }
    /** The low lane pairs of a and b: (a0, a1, b0, b1). */
    static VecF64
    lowPairs(VecF64 a, VecF64 b)
    {
        return {_mm256_permute2f128_pd(a.v, b.v, 0x20)};
    }
    /** The high lane pairs of a and b: (a2, a3, b2, b3). */
    static VecF64
    highPairs(VecF64 a, VecF64 b)
    {
        return {_mm256_permute2f128_pd(a.v, b.v, 0x31)};
    }

    /** Convert integral-valued lanes to i32 and store. */
    void
    storeAsI32(std::int32_t *p) const
    {
        _mm_storeu_si128(reinterpret_cast<__m128i *>(p),
                         _mm256_cvtpd_epi32(v));
    }
#else
    static constexpr int kLanes = 1;
    double v;

    static VecF64 load(const double *p) { return {*p}; }
    static VecF64 broadcast(double x) { return {x}; }
    void store(double *p) const { *p = v; }
    static VecF64 loadEven(const double *p) { return {p[0]}; }
    static VecF64 loadOdd(const double *p) { return {p[1]}; }

    friend VecF64 operator+(VecF64 a, VecF64 b) { return {a.v + b.v}; }
    friend VecF64 operator-(VecF64 a, VecF64 b) { return {a.v - b.v}; }
    friend VecF64 operator*(VecF64 a, VecF64 b) { return {a.v * b.v}; }
    friend VecF64 operator/(VecF64 a, VecF64 b) { return {a.v / b.v}; }

    static VecF64 abs(VecF64 a) { return {std::fabs(a.v)}; }
    static VecF64 min(VecF64 a, VecF64 b) { return {std::fmin(a.v, b.v)}; }
    static VecF64 max(VecF64 a, VecF64 b) { return {std::fmax(a.v, b.v)}; }
    static VecF64 roundNearest(VecF64 a) { return {std::nearbyint(a.v)}; }

    /** Degenerate single-lane stand-ins; the complex-pair kernels
     *  branch to a dedicated scalar loop instead of using these. */
    VecF64 swapPairs() const { return *this; }
    static VecF64 addsub(VecF64 a, VecF64 b) { return {a.v - b.v}; }
    static VecF64 lowPairs(VecF64 a, VecF64) { return a; }
    static VecF64 highPairs(VecF64, VecF64 b) { return b; }

    void
    storeAsI32(std::int32_t *p) const
    {
        *p = static_cast<std::int32_t>(v);
    }
#endif
};

// ------------------------------------------------------------- VecI32

/** Packed i32 lanes (1 / 8 by level). */
struct VecI32 {
#if WILIS_SIMD_LEVEL == 2
    static constexpr int kLanes = 8;
    __m256i v;

    static VecI32
    load(const std::int32_t *p)
    {
        return {_mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(p))};
    }
    static VecI32 broadcast(std::int32_t x) { return {_mm256_set1_epi32(x)}; }
    void
    store(std::int32_t *p) const
    {
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(p), v);
    }

    /**
     * Split p[0 .. 2 * kLanes) into its even (p[2i]) and odd
     * (p[2i + 1]) elements.
     */
    static void
    deinterleave(const std::int32_t *p, VecI32 *even, VecI32 *odd)
    {
        const __m256 a = _mm256_castsi256_ps(load(p).v);
        const __m256 b = _mm256_castsi256_ps(load(p + 8).v);
        // Per 128-bit half: (a0 a2 b0 b2), then the 64-bit quarters
        // are put back in element order.
        const __m256i e = _mm256_castps_si256(
            _mm256_shuffle_ps(a, b, _MM_SHUFFLE(2, 0, 2, 0)));
        const __m256i o = _mm256_castps_si256(
            _mm256_shuffle_ps(a, b, _MM_SHUFFLE(3, 1, 3, 1)));
        even->v = _mm256_permute4x64_epi64(e, _MM_SHUFFLE(3, 1, 2, 0));
        odd->v = _mm256_permute4x64_epi64(o, _MM_SHUFFLE(3, 1, 2, 0));
    }
    /** Lane i <- lane i / 2 (the low half, each lane twice). */
    VecI32
    dupLow() const
    {
        return {_mm256_permutevar8x32_epi32(
            v, _mm256_setr_epi32(0, 0, 1, 1, 2, 2, 3, 3))};
    }
    /** Lane i <- lane kLanes / 2 + i / 2 (the high half, twice). */
    VecI32
    dupHigh() const
    {
        return {_mm256_permutevar8x32_epi32(
            v, _mm256_setr_epi32(4, 4, 5, 5, 6, 6, 7, 7))};
    }
    /** Lane i <- tbl[idx lane i], idx lanes in 0..3. */
    static VecI32
    lookup4(const std::int32_t tbl[4], VecI32 idx)
    {
        __m256i t = _mm256_broadcastsi128_si256(_mm_loadu_si128(
            reinterpret_cast<const __m128i *>(tbl)));
        return {_mm256_permutevar8x32_epi32(t, idx.v)};
    }

    friend VecI32
    operator+(VecI32 a, VecI32 b)
    {
        return {_mm256_add_epi32(a.v, b.v)};
    }
    friend VecI32
    operator-(VecI32 a, VecI32 b)
    {
        return {_mm256_sub_epi32(a.v, b.v)};
    }
    static VecI32
    max(VecI32 a, VecI32 b)
    {
        return {_mm256_max_epi32(a.v, b.v)};
    }
    static VecI32
    min(VecI32 a, VecI32 b)
    {
        return {_mm256_min_epi32(a.v, b.v)};
    }
    static VecI32 abs(VecI32 a) { return {_mm256_abs_epi32(a.v)}; }
    /**
     * Lane i: a negated where sign < 0, 0 where sign == 0, else a
     * (wrapping; callers pass sign lanes of -1, 0 or +1 only).
     */
    static VecI32
    applySign(VecI32 a, VecI32 sign)
    {
        return {_mm256_sign_epi32(a.v, sign.v)};
    }

    /** All-ones lanes where a > b. */
    static VecI32
    gtMask(VecI32 a, VecI32 b)
    {
        return {_mm256_cmpgt_epi32(a.v, b.v)};
    }
    /** mask lane all-ones -> b lane, else a lane. */
    static VecI32
    blend(VecI32 a, VecI32 b, VecI32 mask)
    {
        return {_mm256_blendv_epi8(a.v, b.v, mask.v)};
    }
    /** One bit per lane from a mask vector. */
    unsigned
    moveMask() const
    {
        return static_cast<unsigned>(
            _mm256_movemask_ps(_mm256_castsi256_ps(v)));
    }

    std::int32_t
    reduceMax() const
    {
        __m128i m = _mm_max_epi32(_mm256_castsi256_si128(v),
                                  _mm256_extracti128_si256(v, 1));
        m = _mm_max_epi32(m, _mm_shuffle_epi32(m, _MM_SHUFFLE(1, 0, 3, 2)));
        m = _mm_max_epi32(m, _mm_shuffle_epi32(m, _MM_SHUFFLE(2, 3, 0, 1)));
        return _mm_cvtsi128_si32(m);
    }
#else
    static constexpr int kLanes = 1;
    std::int32_t v;

    static VecI32 load(const std::int32_t *p) { return {*p}; }
    static VecI32 broadcast(std::int32_t x) { return {x}; }
    void store(std::int32_t *p) const { *p = v; }
    static void
    deinterleave(const std::int32_t *p, VecI32 *even, VecI32 *odd)
    {
        even->v = p[0];
        odd->v = p[1];
    }
    /** One lane: lanes 2i and 2i + 1 of a pair are the same lane. */
    VecI32 dupLow() const { return *this; }
    VecI32 dupHigh() const { return *this; }
    static VecI32
    lookup4(const std::int32_t tbl[4], VecI32 idx)
    {
        return {tbl[idx.v]};
    }

    friend VecI32 operator+(VecI32 a, VecI32 b) { return {a.v + b.v}; }
    friend VecI32 operator-(VecI32 a, VecI32 b) { return {a.v - b.v}; }
    static VecI32 max(VecI32 a, VecI32 b) { return {std::max(a.v, b.v)}; }
    static VecI32 min(VecI32 a, VecI32 b) { return {std::min(a.v, b.v)}; }
    static VecI32 abs(VecI32 a) { return {a.v < 0 ? -a.v : a.v}; }
    /** Sign lanes are -1, 0 or +1: one wrapping multiply. */
    static VecI32
    applySign(VecI32 a, VecI32 sign)
    {
        return {static_cast<std::int32_t>(
            static_cast<std::uint32_t>(a.v) *
            static_cast<std::uint32_t>(sign.v))};
    }

    static VecI32 gtMask(VecI32 a, VecI32 b) { return {a.v > b.v ? -1 : 0}; }
    static VecI32
    blend(VecI32 a, VecI32 b, VecI32 mask)
    {
        return {mask.v ? b.v : a.v};
    }
    unsigned moveMask() const { return v ? 1u : 0u; }
    std::int32_t reduceMax() const { return v; }
#endif
};

// ------------------------------------------------------------- VecU64

/**
 * Packed u64 lanes (1 / 4 by level), the integer substrate of
 * the batched counter-RNG kernels (common/random.hh SplitMix64-style
 * mixing in lanes). Only the operations that mix needs exist: add,
 * xor, logical shifts and a low-64 multiply. AVX2 has no 64x64
 * low multiply, so mulLo() composes it from 32x32 widening products
 * -- exact integer arithmetic, so every level computes identical
 * lane values (the kernel bit-exactness guarantee does not even need
 * IEEE reasoning here).
 */
struct VecU64 {
#if WILIS_SIMD_LEVEL == 2
    static constexpr int kLanes = 4;
    __m256i v;

    static VecU64
    load(const std::uint64_t *p)
    {
        return {_mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(p))};
    }
    static VecU64
    broadcast(std::uint64_t x)
    {
        return {_mm256_set1_epi64x(static_cast<long long>(x))};
    }
    void
    store(std::uint64_t *p) const
    {
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(p), v);
    }

    friend VecU64
    operator+(VecU64 a, VecU64 b)
    {
        return {_mm256_add_epi64(a.v, b.v)};
    }
    friend VecU64
    operator^(VecU64 a, VecU64 b)
    {
        return {_mm256_xor_si256(a.v, b.v)};
    }
    /** Logical right shift by an immediate count. */
    template <int N> VecU64 shr() const { return {_mm256_srli_epi64(v, N)}; }
    /** Logical left shift by an immediate count. */
    template <int N> VecU64 shl() const { return {_mm256_slli_epi64(v, N)}; }

    /** Low 64 bits of the per-lane product (exact mod 2^64). */
    static VecU64
    mulLo(VecU64 a, VecU64 b)
    {
        // lo64(a*b) = a_lo*b_lo + ((a_lo*b_hi + a_hi*b_lo) << 32),
        // where mul_epu32 multiplies the low 32 bits of each qword.
        __m256i a_hi = _mm256_srli_epi64(a.v, 32);
        __m256i b_hi = _mm256_srli_epi64(b.v, 32);
        __m256i lo = _mm256_mul_epu32(a.v, b.v);
        __m256i cross = _mm256_add_epi64(_mm256_mul_epu32(a_hi, b.v),
                                         _mm256_mul_epu32(a.v, b_hi));
        return {_mm256_add_epi64(lo, _mm256_slli_epi64(cross, 32))};
    }
#else
    static constexpr int kLanes = 1;
    std::uint64_t v;

    static VecU64 load(const std::uint64_t *p) { return {*p}; }
    static VecU64 broadcast(std::uint64_t x) { return {x}; }
    void store(std::uint64_t *p) const { *p = v; }

    friend VecU64 operator+(VecU64 a, VecU64 b) { return {a.v + b.v}; }
    friend VecU64 operator^(VecU64 a, VecU64 b) { return {a.v ^ b.v}; }
    template <int N> VecU64 shr() const { return {v >> N}; }
    template <int N> VecU64 shl() const { return {v << N}; }

    static VecU64 mulLo(VecU64 a, VecU64 b) { return {a.v * b.v}; }
#endif
};

} // namespace WILIS_SIMD_NS
} // namespace simd
} // namespace wilis

#endif // WILIS_COMMON_SIMD_HH
