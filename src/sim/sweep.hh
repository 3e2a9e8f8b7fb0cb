/**
 * @file
 * Parallel packet sweeps: run many packets of one scenario on a
 * LockstepTeam, each worker owning its own Testbench instance (and
 * with it a private frame arena, so the steady-state hot path makes
 * no heap allocations and workers never contend on the allocator).
 *
 * Determinism: every per-packet random stream -- payload bits and
 * channel impairments -- is keyed by the *packet index* through the
 * counter-based generator, never by the worker id or the iteration
 * order. Results are therefore bit-identical for any thread count;
 * tests assert this at 1, 2 and 8 threads.
 */

#ifndef WILIS_SIM_SWEEP_HH
#define WILIS_SIM_SWEEP_HH

#include <cstdint>
#include <functional>

#include "common/stats.hh"
#include "sim/scenario.hh"
#include "sim/testbench.hh"

namespace wilis {
namespace sim {

/**
 * Zero-copy sweep: run packets [0, num_packets) of @p spec through
 * per-thread testbenches on their arena-backed fast path.
 *
 * @param spec        Scenario (payloadBits taken from the spec).
 * @param num_packets Number of packets to run.
 * @param threads     Worker threads (0 = hardware concurrency).
 * @param per_frame   Called for every packet with the worker index,
 *                    in [0, LockstepTeam::workerCount(threads,
 *                    num_packets)) -- size per-worker accumulators
 *                    with that; must only touch worker-indexed
 *                    state. The
 *                    FrameResult views die when the callback
 *                    returns (the next packet reuses the arena).
 */
void sweepFrames(
    const ScenarioSpec &spec, std::uint64_t num_packets, int threads,
    const std::function<void(int worker, const FrameResult &,
                             std::uint64_t packet_index)> &per_frame);

/** Aggregate payload BER over a packet sweep (allocation-free). */
ErrorStats measureBer(const ScenarioSpec &spec,
                      std::uint64_t num_packets, int threads = 0);

} // namespace sim
} // namespace wilis

#endif // WILIS_SIM_SWEEP_HH
