/**
 * @file
 * The packet sweep behind every parallel bit-exact PHY measurement
 * (BER curves, scenario grids, the SoftPHY LLR calibrations, the
 * network calibration table): a list of scenario cells times a
 * packet count, run on one LockstepTeam.
 *
 * Contract: sweepPackets() calls map(cell, packet, frame) once per
 * (cell, packet) pair and returns the results in (cell, packet)
 * order. map runs on several workers at once, so it may read shared
 * state but must write only to what it returns; it never sees a
 * worker index. Callers reduce the returned vector serially, so
 * every sum -- floating-point ones included -- is the same at any
 * thread count. The FrameResult views die when map returns (the
 * next packet reuses the worker's frame arena).
 *
 * Work split: a work item is one cell's contiguous block of packets,
 * claimed in cell order. Each cell is cut into ceil(workers / cells)
 * blocks, clamped to [1, packets]: one item per cell when cells >=
 * workers, one block per worker for a one-cell sweep. A worker keeps
 * its Testbench (and its private frame arena) while consecutive
 * items belong to the same cell.
 *
 * Determinism: every per-packet random stream is keyed by the cell's
 * seeds and the packet index, never by the worker or the claim
 * order; tests assert identical results at 1, 2 and 8 threads.
 */

#ifndef WILIS_SIM_SWEEP_HH
#define WILIS_SIM_SWEEP_HH

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/lockstep.hh"
#include "common/stats.hh"
#include "sim/scenario.hh"
#include "sim/testbench.hh"

namespace wilis {
namespace sim {

/**
 * Run packets [0, packets) of every scenario in @p cells on one
 * LockstepTeam and map each frame.
 *
 * @param cells   Fully resolved scenarios, each run at its own
 *                payloadBits.
 * @param packets Packets per cell.
 * @param threads At most this many workers (0 = hardware
 *                concurrency).
 * @param map     (size_t cell, std::uint64_t packet,
 *                const FrameResult &) -> T; see the file comment for
 *                what it may touch.
 * @return map's result for every pair, at cell * packets + packet.
 */
template <typename Map>
auto
sweepPackets(const std::vector<ScenarioSpec> &cells,
             std::uint64_t packets, int threads, const Map &map)
    -> std::vector<std::invoke_result_t<const Map &, size_t,
                                        std::uint64_t,
                                        const FrameResult &>>
{
    using T = std::invoke_result_t<const Map &, size_t, std::uint64_t,
                                   const FrameResult &>;
    // One slot per pair, written only by the worker that runs it;
    // optional<T> spares T a default constructor, and a bool result
    // the shared words of std::vector<bool>.
    std::vector<std::optional<T>> slots(cells.size() * packets);
    if (slots.empty())
        return {};
    const std::uint64_t n_cells = cells.size();
    const auto workers = static_cast<std::uint64_t>(
        LockstepTeam::workerCount(threads, slots.size()));
    const std::uint64_t blocks = std::clamp<std::uint64_t>(
        (workers + n_cells - 1) / n_cells, 1, packets);

    // Each worker's Testbench and the cell it was built for.
    std::vector<std::pair<size_t, std::unique_ptr<Testbench>>> benches(
        workers);
    LockstepTeam team(static_cast<int>(workers));
    team.forEach(n_cells * blocks, [&](int w, std::uint64_t item) {
        const size_t c = static_cast<size_t>(item / blocks);
        const std::uint64_t b = item % blocks;
        auto &[bench_cell, tb] = benches[static_cast<size_t>(w)];
        if (!tb || bench_cell != c) {
            tb.reset();
            tb = std::make_unique<Testbench>(cells[c]);
            bench_cell = c;
        }
        for (std::uint64_t p = b * packets / blocks;
             p < (b + 1) * packets / blocks; ++p)
            slots[c * packets + p].emplace(
                map(c, p, tb->runFrame(cells[c].payloadBits, p)));
    });

    std::vector<T> out;
    out.reserve(slots.size());
    for (std::optional<T> &s : slots)
        out.push_back(std::move(*s));
    return out;
}

/** Aggregate payload BER over packets [0, num_packets) of @p spec. */
ErrorStats measureBer(const ScenarioSpec &spec,
                      std::uint64_t num_packets, int threads = 0);

} // namespace sim
} // namespace wilis

#endif // WILIS_SIM_SWEEP_HH
