/**
 * @file
 * Scenario-grid sweeps: the cartesian product of rate x channel x
 * SNR x payload axes over a base ScenarioSpec, sharded across a
 * LockstepTeam cell by cell. Each worker owns a per-cell Testbench
 * (and with it a private frame arena), so the grid runs allocation-
 * free in steady state and workers never share mutable state.
 *
 * Determinism: cell seeds are derived from (grid seed, cell index)
 * through the counter-based generator and every per-packet stream is
 * keyed by the packet index, so a grid produces bit-identical
 * CellResults for any thread count and any cell execution order --
 * the property that makes large sweeps replayable and shardable
 * across machines (disjoint cell ranges compose trivially).
 */

#ifndef WILIS_SIM_SCENARIO_GRID_HH
#define WILIS_SIM_SCENARIO_GRID_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "sim/scenario.hh"

namespace wilis {
namespace sim {

/** Cartesian grid of scenarios over a base spec. */
struct ScenarioGrid {
    /** Template for every cell (axes override its fields). */
    ScenarioSpec base;

    /** Rate axis; empty = {base.rate}. */
    std::vector<phy::RateIndex> rates;
    /** Channel-name axis; empty = {base.channel}. */
    std::vector<std::string> channels;
    /** SNR axis in dB; empty = {base's snr_db}. */
    std::vector<double> snrsDb;
    /** Payload axis in bits; empty = {base.payloadBits}. */
    std::vector<size_t> payloads;

    /**
     * Grid seed: every cell derives its channel and payload seeds
     * from (seed, cell index), so distinct cells see independent --
     * but replayable -- noise and payload streams.
     */
    std::uint64_t seed = 0xC0FFEE;

    /** Number of cells in the grid. */
    size_t cellCount() const;

    /** Fully resolved spec for cell @p index (0..cellCount()-1). */
    ScenarioSpec cell(size_t index) const;
};

/** Aggregated result of one grid cell. */
struct CellResult {
    /** Index of this cell within the grid. */
    size_t cellIndex = 0;
    /** The fully resolved scenario the cell ran. */
    ScenarioSpec spec;
    /** Payload bit errors over the cell's packets. */
    ErrorStats bits;
    /** Packets run. */
    std::uint64_t packets = 0;
    /** Packets with at least one bit error. */
    std::uint64_t packetErrors = 0;

    /** Observed packet error rate. */
    double
    per() const
    {
        return packets ? static_cast<double>(packetErrors) /
                             static_cast<double>(packets)
                       : 0.0;
    }
};

/** Options for sweepGrid(). */
struct GridSweepOptions {
    /** Packets per cell. */
    std::uint64_t packetsPerCell = 100;
    /** Worker threads (0 = hardware concurrency). */
    int threads = 0;
    /**
     * Process-level sharding: only cells with
     * index % shardCount == shardIndex run (round-robin, the
     * campaign layer's unit assignment). Each cell is a pure
     * function of (grid seed, cell index), so disjoint shards
     * compose into exactly the unsharded result.
     */
    int shardIndex = 0;
    /** Total shards (1 = run everything). */
    int shardCount = 1;
    /**
     * Optional progress hook, called after each finished cell from
     * worker threads (must be thread-safe). Cells finish out of
     * order; the returned vector is always in cell order.
     */
    std::function<void(const CellResult &)> onCell;
};

/**
 * Run this shard's cells of @p grid for opt.packetsPerCell packets
 * and return their aggregates in cell order (all cells with the
 * default 1-shard options). Cells are claimed dynamically by the
 * team's workers; results are independent of the thread count.
 */
std::vector<CellResult> sweepGrid(const ScenarioGrid &grid,
                                  const GridSweepOptions &opt);

} // namespace sim
} // namespace wilis

#endif // WILIS_SIM_SCENARIO_GRID_HH
