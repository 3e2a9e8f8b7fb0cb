/**
 * @file
 * Runtime-dispatched SIMD kernel registry for the PHY/decoder hot
 * paths.
 *
 * The hottest inner loops of the simulator -- soft-LLR demapping,
 * the OFDM FFT, the trellis add-compare-select sweep shared by
 * Viterbi/SOVA/BCJR, and the per-sample complex channel arithmetic --
 * are expressed once against the portable packed-vector layer in
 * common/simd.hh and compiled twice: scalar and AVX2
 * (kernels_scalar.cc / kernels_avx2.cc). At startup the dispatcher
 * picks the widest backend the host supports (CPUID via
 * common/cpu_features.hh) unless WILIS_KERNEL_BACKEND names one;
 * tests and benches that compare backends switch tables with
 * setBackend().
 *
 * Numerical-equivalence policy: every backend is BIT-EXACT with the
 * scalar reference. Integer kernels use identical i32 arithmetic;
 * floating kernels use only IEEE-exact f64 operations (add, sub, mul,
 * div, abs, min, max, round-to-nearest) in the same order as the
 * scalar code, and never fuse into FMA. Backend selection therefore
 * changes simulation *speed* only, never simulation *physics* --
 * pinned by tests/test_simd_kernels.cc on randomized inputs and by
 * the rate x channel grid. Every entry has a caller in the simulator
 * (tools/wilis_lint.py enforces it): the layer holds no prototypes.
 */

#ifndef WILIS_COMMON_KERNELS_HH
#define WILIS_COMMON_KERNELS_HH

#include <cstdint>
#include <vector>

#include "common/names.hh"
#include "common/types.hh"

namespace wilis {
namespace kernels {

/** Kernel backend identifiers, in increasing vector width. */
enum class Backend {
    /** Portable scalar reference (the semantic ground truth). */
    Scalar = 0,
    /** AVX2, 256-bit lanes. */
    Avx2 = 1,
};

/** Registry names of Backend. */
inline constexpr auto kBackendNames = nameTable<Backend>(
    "kernel backend", {{Backend::Scalar, "scalar"}, {Backend::Avx2, "avx2"}});

/** Registry name of a backend ("scalar", "avx2"). */
const char *backendName(Backend b);

/**
 * Trellis structure handed to the ACS kernels as flat i32 arrays (one
 * entry per state, SIMD-friendly). The kernels address states through
 * the butterfly layout of a shift-register code -- predecessors of
 * arrival state s are 2*(s % (n/2)) and 2*(s % (n/2)) + 1, the
 * successors of s are s / 2 and n/2 + s / 2 -- and the whole-block
 * BCJR kernel also relies on complementary branch outputs (the two
 * transitions into, or out of, a state carry outputs o and o ^ 3, so
 * their branch metrics are m and -m). decode/trellis_kernels.cc
 * asserts all of it once when building the view.
 */
struct TrellisView {
    /** Number of states (a multiple of twice the widest width). */
    int nStates;
    /** Branch-metric index (0..3) of reverse transition choice 0. */
    const std::int32_t *revOut0;
    /** Branch-metric index (0..3) of reverse transition choice 1. */
    const std::int32_t *revOut1;
    /** Branch-metric index (0..3) of the forward transition for 0. */
    const std::int32_t *fwdOut0;
};

/** Modulation kind for the batched demapper (matches phy::Modulation). */
enum : int {
    /** BPSK, 1 bit per subcarrier. */
    kDemapBpsk = 0,
    /** QPSK, 2 bits per subcarrier. */
    kDemapQpsk = 1,
    /** QAM-16, 4 bits per subcarrier. */
    kDemapQam16 = 2,
    /** QAM-64, 6 bits per subcarrier. */
    kDemapQam64 = 3,
};

/**
 * The process-wide tables of one radix-2 FFT size (phy::Fft builds
 * one per size, once). The stage whose butterflies span 2h points
 * reads its h twiddles w_j = exp(-2*pi*i*j*(n/2h)/n) from offset
 * 2 * (h - 1) of a direction's arrays; every value is stored twice,
 * so a vector lane pair (re, im) loads it without a shuffle. The
 * inverse direction holds the conjugates.
 */
struct FftView {
    /** Transform size (a power of two, at least 2). */
    int n;
    /** Bit-reversal swaps as (i, j) pairs with i < j. */
    const std::int32_t *swaps;
    /** Number of (i, j) pairs in @p swaps. */
    int numSwaps;
    /** Twiddle real parts, [0] forward and [1] inverse. */
    const double *twRe[2];
    /** Twiddle imaginary parts, [0] forward and [1] inverse. */
    const double *twIm[2];
    /** Unitary output scale 1 / sqrt(n). */
    double scale;
};

/**
 * Flattened view of a softphy::CalibrationTable consumed by the
 * batched PER-interpolation kernel (perDrawBatch): per (rate, bin)
 * cell the measured frame error rate and the log geometric-mean
 * packet BERs of clean/errored frames, precomputed through the same
 * call chain CalibrationTable::pberFeedback() uses inline, so the
 * batched draw is bit-identical to the scalar one. The arrays are
 * indexed [rate * num_bins + bin] and owned by the caller (see
 * CalibrationTable::flatten()).
 */
struct PerTableView {
    /** TableCell::per() per cell. */
    const double *per;
    /** std::log(TableCell::pberOkGeo()) per cell. */
    const double *logPberOk;
    /** std::log(TableCell::pberBadGeo()) per cell. */
    const double *logPberBad;
    /** SNR bins per rate row. */
    int numBins;
    /** Lower edge of SNR bin 0, in dB. */
    double snrLoDb;
    /** SNR bin width in dB. */
    double snrStepDb;
};

/**
 * One backend's kernel table. All entries are non-null; the scalar
 * table is the semantic reference for every function.
 */
struct Ops {
    /** Which backend this table implements. */
    Backend backend;

    /**
     * Forward add-compare-select over all states: pm_out[s] =
     * max over b of (pm_in[pred_b[s]] + bm[revOut_b[s]]), recording
     * the winning choice bit per state in @p choices and, when
     * @p delta is non-null, the |winner - loser| margin per state.
     */
    void (*acsForward)(const TrellisView &tv,
                       const std::int32_t *pm_in,
                       const std::int32_t bm[4], std::int32_t *pm_out,
                       std::uint64_t *choices, std::int32_t *delta);

    /**
     * Whole-block sliding-window max-log BCJR over a terminated
     * trellis of @p steps steps (2 * steps soft values): the forward
     * recursion into @p alpha, then per window of @p block_len steps,
     * last window first, a provisional backward pass over the next
     * window (seeded uniform, or exact at the trellis end) and the
     * exact backward pass with the decision unit. Writes one
     * decision per step to @p out: bit = (best1 > best0), llr =
     * |best1 - best0|. @p alpha holds (steps + 1) * nStates metrics
     * and the caller fills row 0 (the start metrics); @p floor is
     * the impossible-state metric, and metrics at or below floor / 2
     * are pinned to it when normalized.
     */
    void (*bcjrMaxLog)(const TrellisView &tv, const SoftBit *soft,
                       int steps, int block_len, std::int32_t floor,
                       std::int32_t *alpha, SoftDecision *out);

    /**
     * Subtract the maximum from every metric; entries at or below
     * @p floor_threshold are pinned to @p floor_value instead.
     */
    void (*normalizeMetrics)(std::int32_t *pm, int n,
                             std::int32_t floor_threshold,
                             std::int32_t floor_value);

    /** Index of the first maximum element. */
    int (*bestState)(const std::int32_t *pm, int n);

    /**
     * Batched soft demap of @p n equalized symbols: per symbol the
     * Tosato-Bisaglia axis metrics of @p mod_kind (kDemap*), scaled
     * by @p scale then the per-symbol weight (null = 1.0), quantized
     * to @p soft_width bits with @p full_scale mapped to the
     * positive rail. Writes bitsPerSubcarrier() values per symbol,
     * symbol-major, to @p out.
     */
    void (*demapBatch)(int mod_kind, const Sample *ys,
                       const double *weights, size_t n, double scale,
                       int soft_width, double full_scale,
                       SoftBit *out);

    /**
     * In-place unitary radix-2 FFT of @p x (tv.n samples): the
     * bit-reversal permutation, then the butterfly stages in order,
     * each butterfly v = x[k + h] * w, (x[k] + v, x[k] - v) with the
     * complex product as (xr*wr - xi*wi, xr*wi + xi*wr), the last
     * stage's outputs times tv.scale. Bit-identical to the
     * std::complex loop for every input whose products never take
     * the NaN-recovery path of the C complex multiply (__muldc3);
     * finite inputs that do not overflow never do.
     */
    void (*fft)(const FftView &tv, bool inverse, Sample *x);

    /** In-place complex scale: s[i] *= h (flat-fading application). */
    void (*scaleComplex)(Sample *s, size_t n, Sample h);

    /**
     * Noise injection: s[i] += sigma * (gauss[2i] + j*gauss[2i+1])
     * for @p n complex samples (gauss holds 2n unit deviates).
     */
    void (*axpyNoise)(Sample *s, size_t n, double sigma,
                      const double *gauss);

    // ---- structure-of-arrays analytic-engine kernels -------------
    // (see docs/ARCHITECTURE.md "Structure-of-arrays analytic
    // engine"). Transcendentals (log, log10, exp) are evaluated by
    // the ONE libm call the scalar code makes, per lane, in every
    // backend -- only the surrounding integer mixing and IEEE-exact
    // f64 arithmetic is vectorized, which is what keeps the batched
    // paths bit-identical to the per-user scalar walks they replace.

    /**
     * Batched SINR accumulation over the users x cells linear gain
     * matrix, one granted user per lane entry: per entry i with
     * serving cell serving[i] and gain row gain_rows[i],
     *
     *   interf = sum over c != serving[i], active[c] != 0, ascending
     *            of gain_rows[i][c] * fade(keys[i], t * cells + c)
     *   fade(k, ctr) = -log(max(1 - u01(k, ctr), 1e-300))  (iid exp)
     *   lin = sig[i] / (1 + interf)
     *   sinr_db[i] = lin > 0 ? 10 * log10(lin) : zero_sinr_db
     *
     * The interference sum stays sequential in ascending cell order
     * in every backend (FP addition is not associative); lanes
     * vectorize the u64 counter mixing across entries.
     */
    void (*sinrAccumBatch)(const double *const *gain_rows,
                           const std::int32_t *serving,
                           const std::uint64_t *fade_keys,
                           const std::uint8_t *active, int cells,
                           std::uint64_t t, const double *sig,
                           size_t n, double zero_sinr_db,
                           double *sinr_db);

    /**
     * Batched PER-table interpolation + Bernoulli frame draw over a
     * flattened calibration table: per entry i, replicate
     * AnalyticLink::drawAt(rates[i], t, snr_db[i]) for a draw stream
     * keyed keys[i] -- linear-interpolated PER lookup, ok[i] =
     * (u01(keys[i], t) >= per), and the log-interpolated calibrated
     * packet-BER feedback conditioned on the outcome.
     */
    void (*perDrawBatch)(const PerTableView &tv,
                         const std::int32_t *rates,
                         const double *snr_db,
                         const std::uint64_t *keys, std::uint64_t t,
                         size_t n, std::uint8_t *ok, double *pber);

    /**
     * Proportional-fair EWMA decay over a cell's users: avg[i] =
     * (1 - a) * avg[i] + a * served_i, where served_i is
     * served_bits for i == granted and 0.0 otherwise (the
     * mac::CellScheduler::update() recurrence, element-parallel).
     */
    void (*pfDecay)(double *avg, size_t n, double a,
                    std::int32_t granted, double served_bits);
};

/**
 * The active kernel table. First use resolves WILIS_KERNEL_BACKEND
 * (unknown names are fatal; a known but unsupported backend warns and
 * falls back) and defaults to the widest host-supported backend.
 */
const Ops &ops();

/** Backend of the active table. */
Backend activeBackend();

/** True if @p b is compiled in and executable on this host. */
bool backendSupported(Backend b);

/** All backends executable on this host, narrowest first. */
std::vector<Backend> availableBackends();

/**
 * Switch the active table. Returns false (and leaves the table
 * unchanged) if the backend is unsupported on this host. The table
 * is process-global and not safe to switch while worker threads are
 * mid-kernel: backend comparisons switch between runs.
 */
bool setBackend(Backend b);

} // namespace kernels
} // namespace wilis

#endif // WILIS_COMMON_KERNELS_HH
