/**
 * @file
 * The campaign layer: one run-request surface for everything that
 * executes a simulation, plus process-level sharding with a
 * deterministic merge (docs/ARCHITECTURE.md, "Campaign layer").
 *
 * A *campaign* is an ordered list of independent units -- the
 * replications of one network spec (`reps=N`), or the cells of a
 * scenario grid. Unit u always computes the same result (counter-RNG
 * keyed by the unit's derived seed), and unit u is owned by shard
 * u % shardCount, so any shard partition covers every unit exactly
 * once. mergeReports() concatenates shard reports in unit order and
 * recomputes the aggregate with the same fixed merge sequence a
 * single process uses -- the merged report is byte-identical for
 * any shard count (and, transitively, any thread count per shard).
 *
 * Entry points:
 *  - runCampaignShard() -- this shard's replications as a RunReport,
 *    with an optional observer that sees each replication's full
 *    NetworkResult (checkpoint/resume rides on spec.checkpoint
 *    inside the engines);
 *  - runGridShard()     -- this shard's grid cells as a RunReport;
 *  - mergeReports()     -- shard reports -> the campaign report.
 *
 * Reports serialize as versioned JSON with a pinned key order
 * (common/json.hh); RunReport::load() consumes exactly what save()
 * emits, which is how `wilis_cli --network ... --shards N` collects
 * its workers' results.
 */

#ifndef WILIS_SIM_CAMPAIGN_HH
#define WILIS_SIM_CAMPAIGN_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/network_sim.hh"
#include "sim/scenario_grid.hh"

namespace wilis {
namespace sim {

/**
 * One network-campaign execution request: the spec (including its
 * replication count), the horizon, and this process's place in the
 * shard partition. The single entry point every network mode of
 * wilis_cli routes through.
 */
struct RunRequest {
    /** What to run (spec.reps = campaign unit count). */
    NetworkSpec spec;
    /** Frame slots per replication. */
    std::uint64_t slots = 120;
    /** Worker threads per run (0 = hardware concurrency). */
    int threads = 0;
    /** This process's shard index in [0, shardCount). */
    int shardIndex = 0;
    /** Total shards the campaign is split across. */
    int shardCount = 1;
    /** Save the packet trace here (reps = 1 only; "" = none). */
    std::string traceFile;
    /** Save the shard's RunReport here ("" = none). */
    std::string reportFile;
};

/** runGridShard()'s request: a grid instead of a network spec. */
struct GridRunRequest {
    /** The scenario grid (units = cells, in index order). */
    ScenarioGrid grid;
    /** Packets per cell. */
    std::uint64_t packetsPerCell = 100;
    /** Worker threads (0 = hardware concurrency). */
    int threads = 0;
    /** This process's shard index in [0, shardCount). */
    int shardIndex = 0;
    /** Total shards the campaign is split across. */
    int shardCount = 1;
    /** Save the shard's RunReport here ("" = none). */
    std::string reportFile;
};

/**
 * One campaign unit's results. Network units fill seed/cells/users
 * and stats (the run's aggregate UserStats, raw accumulator state);
 * grid units fill name and the packet/bit counters. The merged
 * report's aggregate reuses this shape with unit = -1.
 */
struct UnitReport {
    /** Campaign-wide unit index (-1 = the merged aggregate). */
    int unit = 0;
    /** Seed the replication ran with (network). */
    std::uint64_t seed = 0;
    /** Cell count of the deployment (network). */
    int cells = 0;
    /** User count of the deployment (network). */
    int users = 0;
    /** The run's aggregate statistics (network). */
    UserStats stats;
    /** Resolved scenario label (grid). */
    std::string name;
    /** Packets run (grid). */
    std::uint64_t packets = 0;
    /** Packets with >= 1 bit error (grid). */
    std::uint64_t packetErrors = 0;
    /** Payload bits simulated (grid). */
    std::uint64_t bits = 0;
    /** Payload bit errors (grid). */
    std::uint64_t bitErrors = 0;
};

/**
 * A campaign (or campaign-shard) report: the schema every runner
 * emits and the merge consumes. Serialization is exact -- counters
 * as integers, accumulators as %.17g raw state -- so save/load
 * round-trips bit-identically and merged statistics cannot depend
 * on which process computed a unit.
 */
struct RunReport {
    /** Schema identifier in the JSON ("schema" key). */
    static const char *const kSchema;
    /** Schema version this code reads and writes. */
    static constexpr int kVersion = 1;

    /** Unit kind: "network" or "grid". */
    std::string kind;
    /** Canonical config string of the campaign's spec/grid base. */
    std::string config;
    /** Frame slots per replication (network kind). */
    std::uint64_t slots = 0;
    /** Packets per cell (grid kind). */
    std::uint64_t packetsPerCell = 0;
    /** Campaign-wide unit count (across all shards). */
    int unitsTotal = 0;
    /** This report's units, ascending unit index. */
    std::vector<UnitReport> units;
    /** True once merged (aggregate is filled). */
    bool merged = false;
    /** Campaign aggregate, unit order merge (merged only). */
    UnitReport aggregate;

    /** The report as its canonical JSON text. */
    std::string toJsonText() const;
    /** Write the canonical JSON to @p path (fatal on I/O error). */
    void save(const std::string &path) const;
    /** Parse a report (@p what names the source in fatals). */
    static RunReport fromJsonText(const std::string &text,
                                  const std::string &what);
    /** Load a report written by save(). */
    static RunReport load(const std::string &path);
};

/**
 * Called with each owned unit's index and full run result, in unit
 * order, as runCampaignShard() finishes the unit (after its packet
 * trace is saved).
 */
using UnitObserver =
    std::function<void(int unit, const NetworkResult &res)>;

/**
 * Run this shard's replications of req.spec (unit u = replication
 * u; owned when u % shardCount == shardIndex; rep 0 runs at
 * spec.seed, rep r > 0 at a counter-forked seed) and return them as
 * a RunReport, saved to req.reportFile when set. @p observe, if
 * set, sees each owned unit's NetworkResult. Tracing (req.traceFile
 * implies spec.trace) and checkpointing require a single-unit,
 * single-shard campaign.
 */
RunReport runCampaignShard(const RunRequest &req,
                           const UnitObserver &observe = nullptr);

/** The grid twin of runCampaignShard() (unit u = grid cell u). */
RunReport runGridShard(const GridRunRequest &req);

/**
 * Merge shard reports into the campaign report: units concatenated
 * in unit order (fatal on a missing or duplicated unit, or on
 * shards from different campaigns) and the aggregate recomputed
 * from the unit statistics in that order. Byte-identical output
 * for any shard count, including 1.
 */
RunReport mergeReports(const std::vector<RunReport> &shards);

} // namespace sim
} // namespace wilis

#endif // WILIS_SIM_CAMPAIGN_HH
