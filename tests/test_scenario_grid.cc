/**
 * @file
 * Scenario-grid and packet-sweep tests: cell layout and seeding are
 * pinned as a replayability contract, and both the grid report and
 * the packet sweep's result vector under it must be identical at 1,
 * 2 and 8 worker threads (every random stream is keyed by packet
 * index, never by worker id).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "sim/campaign.hh"
#include "sim/scenario_grid.hh"
#include "sim/sweep.hh"

using namespace wilis;
using namespace wilis::sim;

namespace {

ScenarioGrid
smallGrid()
{
    ScenarioGrid grid;
    grid.base = scenarioPreset("awgn-mid");
    grid.rates = {0, 2, 4, 6};
    grid.channels = {"awgn", "rayleigh"};
    grid.snrsDb = {6.0, 12.0};
    grid.payloads = {192};
    grid.seed = 0xABCD;
    return grid; // 4 x 2 x 2 x 1 = 16 cells
}

} // namespace

TEST(ScenarioGrid, CellCountIsAxisProduct)
{
    ScenarioGrid grid = smallGrid();
    EXPECT_EQ(grid.cellCount(), 16u);
    grid.payloads = {100, 200, 300};
    EXPECT_EQ(grid.cellCount(), 48u);
    grid.channels.clear(); // empty axis = base value
    EXPECT_EQ(grid.cellCount(), 24u);
}

TEST(ScenarioGrid, CellLayoutIsRowMajorAndStable)
{
    ScenarioGrid grid = smallGrid();
    grid.payloads = {100, 200};

    // payload is the fastest axis, rate the slowest.
    EXPECT_EQ(grid.cell(0).payloadBits, 100u);
    EXPECT_EQ(grid.cell(1).payloadBits, 200u);
    EXPECT_EQ(grid.cell(0).rate, 0);
    EXPECT_EQ(grid.cell(grid.cellCount() - 1).rate, 6);
    EXPECT_EQ(grid.cell(0).channel, "awgn");
    EXPECT_DOUBLE_EQ(grid.cell(0).snrDb(), 6.0);
    EXPECT_DOUBLE_EQ(grid.cell(2).snrDb(), 12.0);
}

TEST(ScenarioGrid, CellSeedsAreDistinctAndReplayable)
{
    ScenarioGrid grid = smallGrid();
    ScenarioSpec a0 = grid.cell(0);
    ScenarioSpec a1 = grid.cell(1);
    EXPECT_NE(a0.payloadSeed, a1.payloadSeed);
    EXPECT_NE(a0.channelCfg.getString("seed"),
              a1.channelCfg.getString("seed"));

    // Replayable: asking for the same cell again gives the same spec.
    ScenarioSpec again = grid.cell(0);
    EXPECT_EQ(a0.payloadSeed, again.payloadSeed);
    EXPECT_EQ(a0.channelCfg.getString("seed"),
              again.channelCfg.getString("seed"));
    EXPECT_EQ(a0.label(), again.label());
}

TEST(ScenarioGrid, SixteenCellGridDeterministicAt1_2_8Threads)
{
    GridRunRequest req;
    req.grid = smallGrid();
    req.packetsPerCell = 12;
    req.threads = 1;
    const RunReport t1 = runGridShard(req);

    // Every cell ran, in cell order, and the report is byte-identical
    // at 2 and 8 threads.
    ASSERT_EQ(t1.units.size(), 16u);
    for (size_t c = 0; c < t1.units.size(); ++c) {
        EXPECT_EQ(t1.units[c].unit, static_cast<int>(c));
        EXPECT_EQ(t1.units[c].packets, req.packetsPerCell);
    }
    for (int threads : {2, 8}) {
        req.threads = threads;
        EXPECT_EQ(runGridShard(req).toJsonText(), t1.toJsonText())
            << threads << " threads";
    }
}

// ---------------------------------------------------------------
// The packet sweep: the result vector -- one (cell, packet, bit
// errors) entry per pair, in (cell, packet) order -- must be
// independent of the thread count, proving RNG streams are keyed by
// packet index, never by worker id or claim order.
// ---------------------------------------------------------------

namespace {

using PacketRecord = std::tuple<size_t, std::uint64_t, std::uint64_t>;

std::vector<PacketRecord>
sweepRecords(const std::vector<ScenarioSpec> &cells,
             std::uint64_t packets, int threads)
{
    return sweepPackets(
        cells, packets, threads,
        [](size_t c, std::uint64_t p, const FrameResult &res) {
            return PacketRecord{c, p, res.bitErrors};
        });
}

/** Expect @p cells' sweep to agree at 1, 2 and 8 threads. */
void
expectThreadInvariant(const std::vector<ScenarioSpec> &cells,
                      std::uint64_t packets)
{
    const std::vector<PacketRecord> t1 = sweepRecords(cells, packets, 1);
    ASSERT_EQ(t1.size(), cells.size() * packets);
    for (size_t i = 0; i < t1.size(); ++i) {
        EXPECT_EQ(std::get<0>(t1[i]), i / packets);
        EXPECT_EQ(std::get<1>(t1[i]), i % packets);
    }
    EXPECT_EQ(t1, sweepRecords(cells, packets, 2));
    EXPECT_EQ(t1, sweepRecords(cells, packets, 8));
}

} // namespace

TEST(SweepPackets, OneCellSweepIsThreadInvariant)
{
    // One cell splits into one packet block per worker.
    ScenarioSpec spec = scenarioPreset("rayleigh-fading");
    spec.rate = 4;
    spec.payloadBits = 400;
    expectThreadInvariant({spec}, 30);
}

TEST(SweepPackets, SixteenCellSweepIsThreadInvariant)
{
    // 16 cells: one item per cell at 1, 2 and 8 threads.
    const ScenarioGrid grid = smallGrid();
    std::vector<ScenarioSpec> cells;
    for (size_t c = 0; c < grid.cellCount(); ++c)
        cells.push_back(grid.cell(c));
    expectThreadInvariant(cells, 5);
}

TEST(SweepPackets, EmptySweepsReturnNothing)
{
    EXPECT_TRUE(sweepRecords({}, 10, 4).empty());
    EXPECT_TRUE(sweepRecords({scenarioPreset("awgn-mid")}, 0, 4).empty());
}
