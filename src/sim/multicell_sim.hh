/**
 * @file
 * The multi-cell engine behind sim::NetworkSim: a cell grid
 * (sim::Topology) evolving in lockstep over the shared slotted
 * timeline with per-slot SINR from same-slot interfering cells,
 * per-user traffic queues (mac::TrafficSource) and a per-cell slot
 * scheduler (mac::CellScheduler) arbitrating who transmits. ARQ,
 * SoftRate and the fidelity ladder consume the scheduler's grants
 * unchanged.
 *
 * Execution model: each slot runs two phases separated by a
 * LockstepTeam barrier, cells statically partitioned across workers.
 * That is the only barrier of an ordinary slot: the activity flags
 * are double-buffered by slot parity, so a worker may run phase 1
 * of slot t + 1 while another finishes phase 2 of slot t. Mobility
 * epoch and checkpoint slots add one barrier before worker 0
 * mutates or serializes the shared state and one after.
 *
 *   Phase 1 (schedule) -- per cell: deliver due ACKs, draw traffic
 *       arrivals, evaluate eligibility and pick this slot's grant
 *       (proportional fair evaluates the instantaneous rate metric
 *       only for users whose rate bound could still win).
 *       The only cross-cell output is the per-cell activity flag +
 *       granted user.
 *   Phase 2 (transmit) -- per cell: fold the grant's serving gain,
 *       per-slot fading and the *other* cells' phase-1 activity
 *       into an effective SINR, push it through the fidelity rung
 *       (calibrated analytic draw, or the bit-exact PHY at the
 *       conditioned SINR), and feed ARQ/SoftRate.
 *
 * runMulticellSoa() implements this model as a structure-of-arrays
 * engine (multicell_soa.cc): per-cell contiguous state blocks, with
 * the phase-2 SINR accumulation, counter-RNG fades and calibrated
 * PER draws batched through the runtime-dispatched kernels in
 * common/kernels.hh (docs/ARCHITECTURE.md, "Structure-of-arrays
 * analytic engine"). Its results are checked bit-for-bit against a
 * plain single-threaded per-user walk of the same model that lives
 * with the tests (tests/peruser_reference.hh).
 *
 * All mutable state is owned by exactly one cell (its users'
 * queues, ARQ windows, schedulers, statistics) or one worker (PHY
 * contexts), every random stream is keyed by (seed, user, slot) or
 * (seed, user, cell, slot), and the phase barrier makes the
 * activity set each cell observes independent of sharding -- so a
 * deployment of any size is bit-identical at any thread count.
 *
 * Internal to sim::NetworkSim; call NetworkSim::run() instead.
 */

#ifndef WILIS_SIM_MULTICELL_SIM_HH
#define WILIS_SIM_MULTICELL_SIM_HH

#include <cstdint>
#include <memory>

#include "sim/network_sim.hh"
#include "sim/topology.hh"
#include "softphy/ber_estimator.hh"
#include "softphy/calibration_table.hh"

namespace wilis {
namespace sim {

/**
 * Cross-run cache of the SoA engine's immutable derived per-user
 * state: Jakes oscillator banks and their |h|^2 bounds, forked
 * stream keys, serving gains and the flattened calibration table --
 * everything that is a pure function of (spec, topology, table) and
 * therefore identical for every run() of the same NetworkSim -- plus
 * a memo of the granted user's serving-link |h|^2 per (slot, cell),
 * 16 bytes an entry, sized by run() to the longest horizon so far
 * (at most 64 MB), so a rerun looks its grants up instead of
 * evaluating their faders. Owned by NetworkSim (opaque here;
 * defined in multicell_soa.cc) so repeated runs skip the
 * rederivation; caching cannot change results.
 */
struct McSoaCache;

/**
 * Run @p slots frame slots of the multi-cell deployment @p topo
 * described by @p spec on the SIMD-batched structure-of-arrays
 * engine (see file comment). @p calib backs the analytic fidelity
 * rung (must be valid unless the mode is "full"); @p estimator
 * feeds SoftRate on the full-PHY rung. @p cache holds the
 * immutable derived state across runs: built when empty, reused
 * otherwise, so pass one slot per (spec, topo, calib) only.
 */
NetworkResult runMulticellSoa(
    const NetworkSpec &spec, const Topology &topo,
    const softphy::BerEstimator &estimator,
    std::shared_ptr<const softphy::CalibrationTable> calib,
    std::uint64_t slots, int threads,
    std::shared_ptr<McSoaCache> &cache);

} // namespace sim
} // namespace wilis

#endif // WILIS_SIM_MULTICELL_SIM_HH
