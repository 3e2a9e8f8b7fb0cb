/**
 * @file
 * Scenario-grid sweep demo: a 24-cell grid (3 rates x 2 channels x
 * 2 SNRs x 2 payloads) run through the campaign layer's grid entry
 * point, with every cell on the zero-copy frame pipeline. The grid
 * is then re-run single-threaded and split across two in-process
 * shards, and all three merged campaign reports are compared byte
 * for byte -- the determinism contract: cell results are a pure
 * function of (grid seed, cell index, packet index), never of the
 * sharding, whether that sharding is threads or processes.
 *
 * Usage: ./build/scenario_grid [packets-per-cell] [threads]
 */

#include <cstdio>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/table.hh"
#include "li/config.hh"
#include "sim/campaign.hh"
#include "sim/scenario_grid.hh"

using namespace wilis;

namespace {

/** Run the grid split @p shards ways and merge the shard reports. */
sim::RunReport
runSharded(const sim::ScenarioGrid &grid, std::uint64_t packets,
           int threads, int shards)
{
    std::vector<sim::RunReport> parts;
    for (int i = 0; i < shards; ++i) {
        sim::GridRunRequest req;
        req.grid = grid;
        req.packetsPerCell = packets;
        req.threads = threads;
        req.shardIndex = i;
        req.shardCount = shards;
        parts.push_back(sim::runGridShard(req));
    }
    return sim::mergeReports(parts);
}

} // namespace

int
main(int argc, char **argv)
{
    // The positionals go through li::Config's strict getters, so a
    // malformed value is fatal and names its argument.
    wilis_fatal_if(argc > 3, "unexpected argument '%s'", argv[3]);
    li::Config args;
    if (argc > 1)
        args.set("packets_per_cell", argv[1]);
    if (argc > 2)
        args.set("threads", argv[2]);
    std::uint64_t packets = 40;
    int threads = 0;
    const li::ApplyKeys read(args);
    read("packets_per_cell", packets, li::atLeast<std::uint64_t>(1));
    read("threads", threads, li::atLeast(0));

    sim::ScenarioGrid grid;
    grid.base = sim::scenarioPreset("awgn-mid");
    grid.rates = {0, 2, 4};
    grid.channels = {"awgn", "rayleigh"};
    grid.snrsDb = {6.0, 12.0};
    grid.payloads = {256, 1024};
    grid.seed = 0xC0FFEE;

    std::printf("scenario grid: %zu cells x %llu packets, %d "
                "threads\n\n",
                grid.cellCount(),
                static_cast<unsigned long long>(packets), threads);

    const sim::RunReport report =
        runSharded(grid, packets, threads, 1);

    Table t({"cell", "scenario", "BER", "PER"});
    for (const auto &u : report.units) {
        const double ber =
            u.bits ? static_cast<double>(u.bitErrors) /
                         static_cast<double>(u.bits)
                   : 0.0;
        const double per =
            u.packets ? static_cast<double>(u.packetErrors) /
                            static_cast<double>(u.packets)
                      : 0.0;
        t.addRow({strprintf("%d", u.unit), u.name,
                  strprintf("%.3e", ber), strprintf("%.3f", per)});
    }
    t.print();

    // Replay single-threaded and as a two-shard campaign: neither
    // the thread count nor the process split may leak into the
    // physics, so all merged reports must be byte-identical.
    const std::string baseline = report.toJsonText();
    const bool thread_inv =
        runSharded(grid, packets, 1, 1).toJsonText() == baseline;
    const bool shard_inv =
        runSharded(grid, packets, threads, 2).toJsonText() ==
        baseline;
    std::printf("\ndeterministic across thread counts: %s\n",
                thread_inv ? "yes" : "NO");
    std::printf("deterministic across shard counts: %s\n",
                shard_inv ? "yes" : "NO");
    return thread_inv && shard_inv ? 0 : 1;
}
