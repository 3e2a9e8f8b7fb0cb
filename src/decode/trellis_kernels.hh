/**
 * @file
 * Shared trellis kernels: the branch metric unit (BMU) and the
 * add-compare-select path metric update (PMU/ACS) used by Viterbi,
 * SOVA and BCJR alike -- the paper notes these components are common
 * to both soft decoders and differ only in path permutation and ACS
 * flavour (section 4.3).
 */

#ifndef WILIS_DECODE_TRELLIS_KERNELS_HH
#define WILIS_DECODE_TRELLIS_KERNELS_HH

#include <cstdint>

#include "common/kernels.hh"
#include "common/types.hh"
#include "phy/conv_code.hh"

namespace wilis {
namespace decode {

/** Number of trellis states. */
constexpr int kStates = phy::ConvCode::kStates;

/** Very negative path metric used for impossible states. */
constexpr std::int32_t kMetricFloor = INT32_MIN / 4;

/**
 * Precomputed per-state transition tables in both directions.
 * Singleton; derive everything from phy::convCode().
 */
struct TrellisTables {
    /**
     * Backward view: for arrival state s and predecessor choice b,
     * the 2-bit coded output (g0 in bit 0) of the transition
     * predecessor(s, b) -> s.
     */
    std::uint8_t revOut[kStates][2];
    /** Forward view: next state for (state, input). */
    std::uint8_t fwdNext[kStates][2];
    /** Forward view: 2-bit coded output for (state, input). */
    std::uint8_t fwdOut[kStates][2];

    /**
     * The output tables as flat i32 arrays, the form the SIMD kernel
     * backends consume through kernels::TrellisView (see
     * common/kernels.hh). Building them asserts the shift-register
     * butterfly layout and the complementary branch outputs the
     * vector kernels rely on.
     */
    struct Flat {
        /** Reverse-transition output index, choice 0 / 1. */
        std::int32_t revOut0[kStates], revOut1[kStates];
        /** Forward-transition output index for input 0. */
        std::int32_t fwdOut0[kStates];
    };
    /** The flat arrays kernels::TrellisView points into. */
    Flat flat;

    /** The process-wide tables. */
    static const TrellisTables &get();

    /** The kernel-layer view of the process-wide tables. */
    static const kernels::TrellisView &view();
};

/**
 * Branch metric unit: correlation metrics for the four possible coded
 * output pairs given the two received soft values. bm[o] is the
 * metric for output pair o (g0 in bit 0); larger means more likely.
 */
inline void
branchMetrics(SoftBit la0, SoftBit la1, std::int32_t bm[4])
{
    bm[0] = -la0 - la1;
    bm[1] = la0 - la1;
    bm[2] = -la0 + la1;
    bm[3] = la0 + la1;
}

/**
 * The PMU kernels of one Viterbi or SOVA decode: the active backend's
 * kernel table and the process-wide trellis view, looked up once at
 * construction instead of once per trellis step. Build one per
 * decode, so a backend switch between decodes takes effect at the
 * next decode.
 */
class TrellisKernels
{
  public:
    TrellisKernels() : k(kernels::ops()), tv(TrellisTables::view()) {}

    /**
     * One add-compare-select step over all states (the PMU of
     * Figure 3/4 in the forward direction).
     *
     * @param pm_in   Path metrics at time j (per state).
     * @param bm      Output of branchMetrics() for this step's pair.
     * @param pm_out  Path metrics at time j+1.
     * @param choices Bit s set if the surviving predecessor of
     *                arrival state s was predecessor(s, 1).
     * @param delta   If non-null, |winner - loser| metric difference
     *                per arrival state (the SOVA soft input).
     */
    void
    acsForward(const std::int32_t pm_in[kStates],
               const std::int32_t bm[4], std::int32_t pm_out[kStates],
               std::uint64_t &choices, std::int32_t *delta) const
    {
        k.acsForward(tv, pm_in, bm, pm_out, &choices, delta);
    }

    /** Subtract the maximum from @p pm so metrics stay bounded. */
    void
    normalizeMetrics(std::int32_t pm[kStates]) const
    {
        k.normalizeMetrics(pm, kStates, kMetricFloor / 2,
                           kMetricFloor);
    }

    /** Index of the maximum path metric. */
    int
    bestState(const std::int32_t pm[kStates]) const
    {
        return k.bestState(pm, kStates);
    }

  private:
    const kernels::Ops &k;
    const kernels::TrellisView &tv;
};

} // namespace decode
} // namespace wilis

#endif // WILIS_DECODE_TRELLIS_KERNELS_HH
