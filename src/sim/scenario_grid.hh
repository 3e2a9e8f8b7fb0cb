/**
 * @file
 * Scenario grids: the cartesian product of rate x channel x SNR x
 * payload axes over a base ScenarioSpec. A grid only names its
 * cells; sim::runGridShard (sim/campaign.hh) runs a shard of them as
 * one sim::sweepPackets() call.
 *
 * Determinism: cell seeds are derived from (grid seed, cell index)
 * through the counter-based generator and every per-packet stream is
 * keyed by the packet index, so a cell's results are the same for
 * any thread count and any cell execution order -- the property
 * that makes large sweeps replayable and shardable across machines
 * (disjoint cell ranges compose trivially).
 */

#ifndef WILIS_SIM_SCENARIO_GRID_HH
#define WILIS_SIM_SCENARIO_GRID_HH

#include <cstdint>
#include <string>
#include <vector>

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

} // namespace sim
} // namespace wilis

#endif // WILIS_SIM_SCENARIO_GRID_HH
