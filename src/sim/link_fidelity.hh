/**
 * @file
 * The per-link fidelity ladder of the hybrid network simulator: which
 * rung simulates a frame slot, and what either rung hands the MAC.
 *
 *  - "full"     -- the bit-exact PHY path (payload -> tx -> channel
 *                  -> rx -> decode), WorkerPhy::frame()
 *                  (sim/worker_phy.hh).
 *  - "analytic" -- a calibrated fast path: the slot's fading gain
 *                  (and, multi-cell, interference) is folded into an
 *                  effective SNR, the frame outcome is drawn from a
 *                  softphy::CalibrationTable (per-rate, per-SNR-bin
 *                  frame error rates measured offline against the
 *                  full PHY), and the SoftRate feedback is the
 *                  table's calibrated packet-BER statistic
 *                  (AnalyticLink::drawAt() or its batched kernel).
 *                  Roughly three orders of magnitude cheaper per slot.
 *  - "auto"     -- full PHY for a per-user warm-up prefix and
 *                  periodic refresh windows, analytic in between:
 *                  the mixed-fidelity operating point WiLIS argues
 *                  for (bit-exact where it matters, modeled where it
 *                  does not).
 *
 * Each engine picks the rung with one FidelityPolicy::fullPhySlot(t)
 * branch per slot. Both rungs produce the same LinkFrameResult, so
 * SoftRate and ARQ consume frame outcomes without knowing which
 * fidelity produced them. All analytic randomness is keyed by (master
 * seed, user, slot) through the counter generator -- never by worker
 * id -- so every mode stays bit-identical across thread counts, and
 * the fidelity schedule itself is a pure function of the slot index.
 */

#ifndef WILIS_SIM_LINK_FIDELITY_HH
#define WILIS_SIM_LINK_FIDELITY_HH

#include <cstdint>

#include "common/names.hh"
#include "common/random.hh"
#include "phy/modulation.hh"

namespace wilis {

namespace softphy {
class CalibrationTable;
}

namespace sim {

/**
 * Effective SNR/SINR assigned to a slot with no usable signal (a
 * dropped fade, or a zero signal term in the multi-cell SINR): far
 * below any calibrated bin, so the PER lookup saturates at the
 * worst-case row edge. Shared by the single-cell engine, the
 * scalar per-user path and the batched SoA kernels so every path
 * bins a dead slot identically.
 */
inline constexpr double kZeroSinrDb = -300.0;

/** Which backend simulates a link's frame slots. */
enum class FidelityMode {
    /** Bit-exact PHY for every slot. */
    Full = 0,
    /** Calibrated analytic model for every slot. */
    Analytic = 1,
    /** Full PHY for warm-up/refresh slots, analytic in between. */
    Auto = 2,
};

/** Config-file names of FidelityMode. */
inline constexpr auto kFidelityModeNames = nameTable<FidelityMode>(
    "fidelity mode", {{FidelityMode::Full, "full"},
                      {FidelityMode::Analytic, "analytic"},
                      {FidelityMode::Auto, "auto"}});

/**
 * Per-link fidelity selection, threaded through sim::NetworkSpec.
 * The schedule knobs only matter in Auto mode.
 */
struct FidelityPolicy {
    /** Backend selection. */
    FidelityMode mode = FidelityMode::Full;
    /** Auto: leading slots per user simulated with the full PHY. */
    std::uint64_t warmupSlots = 16;
    /** Auto: slots between the starts of two refresh windows. */
    std::uint64_t refreshPeriod = 64;
    /** Auto: full-PHY slots at the start of each refresh window. */
    std::uint64_t refreshSlots = 4;

    /**
     * True if slot @p t of a user timeline runs the full PHY under
     * this policy -- a pure function of the slot index, so the
     * fidelity schedule can never depend on sharding.
     */
    bool fullPhySlot(std::uint64_t t) const;
};

/** Frame outcome as seen by the MAC, whatever fidelity produced it. */
struct LinkFrameResult {
    /** True if the frame decoded (or was drawn) error-free. */
    bool ok = false;
    /** SoftPHY packet-BER feedback for SoftRate. */
    double pber = 0.0;
    /** True if the bit-exact PHY produced this result. */
    bool fullPhy = false;
};

/**
 * The calibrated analytic rung as a scalar reference: one draw per
 * call, from the caller's effective SNR. Both network engines draw
 * their analytic slots through it or its batched twin, the
 * perDrawBatch kernel (common/kernels.hh), which replicates it bit
 * for bit; the per-user oracle and the kernel tests compare the two.
 */
class AnalyticLink
{
  public:
    /**
     * @param table       Calibration table (borrowed, non-null).
     * @param draw_stream Per-user stream key for the success draws
     *                    ((master seed, user)-derived by the engine).
     */
    AnalyticLink(const softphy::CalibrationTable *table,
                 std::uint64_t draw_stream);

    /**
     * Draw the frame outcome of slot @p t at @p snr_eff_db from the
     * calibration table -- success as uniform(stream, t) >=
     * PER(rate, snr), feedback as the calibrated packet BER
     * conditioned on the outcome. The single-cell engine folds the
     * slot's fading gain into @p snr_eff_db; the multi-cell engine
     * folds pathloss, shadowing, fading and same-slot interference
     * into one SINR.
     */
    LinkFrameResult drawAt(phy::RateIndex rate, std::uint64_t t,
                           double snr_eff_db) const;

  private:
    const softphy::CalibrationTable *table_;
    CounterRng draws_;
};

} // namespace sim
} // namespace wilis

#endif // WILIS_SIM_LINK_FIDELITY_HH
