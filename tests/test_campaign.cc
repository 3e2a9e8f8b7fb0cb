/**
 * @file
 * Campaign-layer tests: one RunRequest -> RunReport path behind
 * every frontend. The properties pinned here are the API contract:
 * shard reports merge into a report byte-identical to the unsharded
 * run (for any shard and thread count), the JSON round-trips through
 * save/load byte-exactly, the spec-argument parser accepts the same
 * preset / inline-config / file grammar everywhere, and malformed
 * campaigns (bad presets, overlapping shards, mixed configs) die
 * loudly instead of merging garbage.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "sim/campaign.hh"
#include "sim/scenario.hh"
#include "sim/scenario_grid.hh"

using namespace wilis;
using namespace wilis::sim;

namespace {

std::string
calibrationPath()
{
    return std::string(WILIS_SOURCE_DIR) +
           "/data/network_calibration.txt";
}

/** A small replicated multi-cell campaign (4 reps of grid-3x3). */
RunRequest
campaignRequest(int shard_index, int shard_count, int threads)
{
    RunRequest req;
    req.spec = networkPreset("grid-3x3");
    req.spec.calibrationFile = calibrationPath();
    req.spec.reps = 4;
    req.slots = 40;
    req.threads = threads;
    req.shardIndex = shard_index;
    req.shardCount = shard_count;
    return req;
}

/** Run the campaign split @p shards ways and merge the reports. */
RunReport
runShardedCampaign(int shards, int threads)
{
    std::vector<RunReport> parts;
    for (int i = 0; i < shards; ++i)
        parts.push_back(
            runCampaignShard(campaignRequest(i, shards, threads)));
    return mergeReports(parts);
}

/**
 * @p stats as report JSON: every accumulator serialized exactly, so
 * equal text means field-for-field equal statistics.
 */
std::string
statsText(const std::vector<UserStats> &stats)
{
    RunReport rep;
    rep.kind = "network";
    for (const UserStats &s : stats) {
        UnitReport unit;
        unit.stats = s;
        rep.units.push_back(unit);
    }
    return rep.toJsonText();
}

/** The scenario_grid demo grid, shrunk for test time. */
ScenarioGrid
demoGrid()
{
    ScenarioGrid grid;
    grid.base = scenarioPreset("awgn-mid");
    grid.rates = {0, 2};
    grid.channels = {"awgn", "rayleigh"};
    grid.snrsDb = {8.0};
    grid.payloads = {256};
    grid.seed = 0xC0FFEE;
    return grid;
}

RunReport
runShardedGrid(int shards, int threads)
{
    std::vector<RunReport> parts;
    for (int i = 0; i < shards; ++i) {
        GridRunRequest req;
        req.grid = demoGrid();
        req.packetsPerCell = 30;
        req.threads = threads;
        req.shardIndex = i;
        req.shardCount = shards;
        parts.push_back(runGridShard(req));
    }
    return mergeReports(parts);
}

} // namespace

// ---------------------------------------------- spec-arg parsing

TEST(ParseSpecArg, AcceptsPresetHeadWithOverrideTail)
{
    const NetworkSpec plain = networkPreset("grid-3x3");
    const NetworkSpec parsed =
        parseNetworkSpecArg("grid-3x3,net_seed=77,users=12");
    EXPECT_EQ(parsed.seed, 77u);
    EXPECT_EQ(parsed.numUsers, 12);
    EXPECT_EQ(parsed.topology.rows, plain.topology.rows);
    EXPECT_EQ(parsed.topology.cols, plain.topology.cols);

    const ScenarioSpec link = parseScenarioSpecArg("awgn-mid");
    EXPECT_EQ(link.toConfig().toString(),
              scenarioPreset("awgn-mid").toConfig().toString());
}

TEST(ParseSpecArg, AcceptsInlineConfigAndPresetKey)
{
    // A head containing '=' is an inline config applied over the
    // caller's defaults...
    NetworkSpec defaults = networkPreset("grid-3x3");
    const NetworkSpec inl =
        parseNetworkSpecArg("users=20,reps=3", defaults);
    EXPECT_EQ(inl.numUsers, 20);
    EXPECT_EQ(inl.reps, 3);
    EXPECT_EQ(inl.topology.rows, defaults.topology.rows);

    // ...and an embedded preset= key rebases onto that preset first.
    const NetworkSpec rebased =
        parseNetworkSpecArg("preset=grid-3x3,users=20");
    EXPECT_EQ(rebased.numUsers, 20);
    EXPECT_EQ(rebased.topology.cols,
              networkPreset("grid-3x3").topology.cols);
}

TEST(ParseSpecArg, RoundTripsThroughCanonicalString)
{
    NetworkSpec spec = networkPreset("grid-3x3");
    spec.reps = 4;
    const std::string canonical = spec.toConfig().toString();
    const NetworkSpec reparsed = parseNetworkSpecArg(canonical);
    EXPECT_EQ(reparsed.toConfig().toString(), canonical);
}

TEST(ParseSpecArgDeath, RejectsBadPresetsAndUnknownKeys)
{
    EXPECT_DEATH(parseNetworkSpecArg("no-such-preset"), "preset");
    EXPECT_DEATH(parseNetworkSpecArg("grid-3x3,bogus_key=1"),
                 "unknown");
    EXPECT_DEATH(parseScenarioSpecArg("awgn-mid,users=4"),
                 "unknown");
    // CLI-only keys are not spec keys; the CLI peels them before
    // this parser ever sees the config.
    EXPECT_DEATH(parseScenarioSpecArg("awgn-mid,packets=100"),
                 "unknown");
}

// -------------------------------------------------- shard merging

TEST(Campaign, ShardAndThreadCountsAreInvisible)
{
    const RunReport baseline = runShardedCampaign(1, 2);
    EXPECT_EQ(baseline.kind, "network");
    EXPECT_EQ(baseline.unitsTotal, 4);
    ASSERT_EQ(baseline.units.size(), 4u);
    // Rep 0 runs the master seed; later reps fork off it.
    EXPECT_EQ(baseline.units[0].seed, networkPreset("grid-3x3").seed);
    EXPECT_NE(baseline.units[1].seed, baseline.units[0].seed);

    const std::string text = baseline.toJsonText();
    EXPECT_EQ(runShardedCampaign(4, 2).toJsonText(), text);
    EXPECT_EQ(runShardedCampaign(3, 1).toJsonText(), text);
}

TEST(Campaign, ObserverSeesEachOwnedUnitOnceInUnitOrder)
{
    for (const int shards : {1, 2}) {
        const int index = shards - 1;
        std::vector<int> seen;
        std::vector<UserStats> observed;
        const RunReport rep = runCampaignShard(
            campaignRequest(index, shards, 2),
            [&](int unit, const NetworkResult &res) {
                seen.push_back(unit);
                observed.push_back(res.aggregate);
            });
        std::vector<int> owned;
        std::vector<UserStats> reported;
        for (const UnitReport &u : rep.units) {
            owned.push_back(u.unit);
            reported.push_back(u.stats);
        }
        const std::vector<int> want =
            shards == 1 ? std::vector<int>{0, 1, 2, 3}
                        : std::vector<int>{1, 3};
        EXPECT_EQ(owned, want);
        EXPECT_EQ(seen, owned);
        EXPECT_EQ(statsText(observed), statsText(reported));
    }
}

TEST(Campaign, SingleRepUnitIsAPlainNetworkSimRun)
{
    // A reps=1 campaign is one NetworkSim run at the spec's own
    // seed, which is what lets wilis_cli print a plain run's tables
    // from the campaign path.
    RunRequest req = campaignRequest(0, 1, 2);
    req.spec.reps = 1;
    int calls = 0;
    std::vector<UserStats> observed_users;
    const RunReport rep = runCampaignShard(
        req, [&](int unit, const NetworkResult &res) {
            ++calls;
            EXPECT_EQ(unit, 0);
            observed_users = res.users;
        });
    ASSERT_EQ(calls, 1);
    ASSERT_EQ(rep.units.size(), 1u);

    const NetworkResult direct =
        NetworkSim(req.spec).run(req.slots, req.threads);
    EXPECT_EQ(rep.units[0].seed, req.spec.seed);
    EXPECT_EQ(statsText({rep.units[0].stats}),
              statsText({direct.aggregate}));
    EXPECT_EQ(statsText(observed_users), statsText(direct.users));
}

TEST(Campaign, GridShardingIsInvisible)
{
    const std::string text = runShardedGrid(1, 2).toJsonText();
    EXPECT_EQ(runShardedGrid(3, 2).toJsonText(), text);
    EXPECT_EQ(runShardedGrid(2, 1).toJsonText(), text);
}

TEST(Campaign, MergedAggregateMatchesManualMerge)
{
    const RunReport merged = runShardedCampaign(2, 2);
    ASSERT_TRUE(merged.merged);
    UserStats manual;
    for (const UnitReport &u : merged.units)
        manual.merge(u.stats);
    EXPECT_EQ(merged.aggregate.stats.delivered, manual.delivered);
    EXPECT_EQ(merged.aggregate.stats.goodputBits, manual.goodputBits);
    EXPECT_EQ(merged.aggregate.unit, -1);
}

TEST(Campaign, ReportSaveLoadRoundTripsByteExactly)
{
    const RunReport merged = runShardedCampaign(2, 2);
    const std::string path =
        ::testing::TempDir() + "wilis_campaign_report.json";
    merged.save(path);
    const RunReport loaded = RunReport::load(path);
    std::remove(path.c_str());
    EXPECT_TRUE(loaded.merged);
    EXPECT_EQ(loaded.toJsonText(), merged.toJsonText());

    // Unmerged shard reports round-trip too (what a --shards run
    // of wilis_cli collects from its workers before merging).
    const RunReport shard = runCampaignShard(campaignRequest(1, 4, 1));
    const RunReport reparsed =
        RunReport::fromJsonText(shard.toJsonText(), "test");
    EXPECT_FALSE(reparsed.merged);
    EXPECT_EQ(reparsed.toJsonText(), shard.toJsonText());
}

// ----------------------------------------------------- validation

TEST(CampaignDeath, MergeRejectsMalformedShardSets)
{
    // Shard reports are read back from files, so a bad shard set is
    // a clean exit(1) naming the unit or config, never an abort.
    const RunReport a = runCampaignShard(campaignRequest(0, 2, 1));
    const RunReport b = runCampaignShard(campaignRequest(1, 2, 1));
    const auto rejects = [](const std::vector<RunReport> &shards,
                            const std::string &why) {
        EXPECT_EXIT(mergeReports(shards), testing::ExitedWithCode(1),
                    "fatal: " + why)
            << why;
    };

    rejects({}, "no shard reports to merge");
    // Overlap: the same units reported twice.
    rejects({a, a}, "unit 0 reported by two shards \\(config '");
    // Gap: shard 1 of 2 missing.
    rejects({a}, "no shard reported unit 1 of 4 \\(config '");
    // Mixed campaigns: configs differ.
    RunReport other = b;
    other.config += ",x";
    rejects({a, other},
            "shard reports describe different campaigns "
            "\\(network '.*,x' vs network '");
    // Shape disagreement: same config, another horizon.
    RunReport longer = b;
    longer.slots += 1;
    rejects({a, longer}, "shard reports of config '.*' disagree on "
                         "the campaign shape \\(41 slots");
    // A unit index outside the campaign.
    RunReport stray = b;
    stray.units.back().unit = 4;
    rejects({a, stray}, "unit 4 out of campaign range \\[0, 4\\)");
    // A merged report is not a shard.
    const RunReport merged = mergeReports({a, b});
    rejects({merged}, "cannot merge an already-merged report");
}

TEST(CampaignDeath, WrongTypedReportFieldExitsCleanly)
{
    // A report read from disk is outside input: a string where a
    // counter belongs is a clean exit(1) naming both kinds, not an
    // abort.
    RunReport rep;
    rep.kind = "network";
    rep.slots = 40;
    rep.unitsTotal = 1;
    std::string text = rep.toJsonText();
    const std::string counter = "\"slots\": 40";
    const size_t at = text.find(counter);
    ASSERT_NE(at, std::string::npos) << text;
    text.replace(at, counter.size(), "\"slots\": \"40\"");
    const std::string path =
        ::testing::TempDir() + "wilis_wrong_typed_report.json";
    std::ofstream(path) << text;
    EXPECT_EXIT(RunReport::load(path), testing::ExitedWithCode(1),
                "JSON value is a string, expected a number");
    std::remove(path.c_str());
}

TEST(CampaignDeath, TruncatedReportFileNamesItself)
{
    // A shard report cut short on disk is a clean exit(1) whose
    // message names the file, so a --shards run says which worker's
    // report to look at.
    RunReport rep;
    rep.kind = "network";
    rep.slots = 40;
    rep.unitsTotal = 1;
    const std::string text = rep.toJsonText();
    const std::string path =
        ::testing::TempDir() + "wilis_truncated_report.json";
    std::ofstream(path) << text.substr(0, text.size() / 2);
    EXPECT_EXIT(RunReport::load(path), testing::ExitedWithCode(1),
                "fatal: [^\n]*wilis_truncated_report\\.json: "
                "malformed JSON at byte");
    std::remove(path.c_str());
}

TEST(CampaignDeath, HistogramCountsOffTheirTotalExitCleanly)
{
    // A histogram whose counts do not add up to its total is a
    // clean exit(1) naming the mismatch.
    RunReport rep;
    rep.kind = "network";
    rep.slots = 40;
    rep.unitsTotal = 1;
    rep.units.emplace_back();
    std::string text = rep.toJsonText();
    const std::string total = "\"total\": 0";
    const size_t at = text.find(total);
    ASSERT_NE(at, std::string::npos) << text;
    text.replace(at, total.size(), "\"total\": 5");
    const std::string path =
        ::testing::TempDir() + "wilis_bad_histogram_report.json";
    std::ofstream(path) << text;
    EXPECT_EXIT(RunReport::load(path), testing::ExitedWithCode(1),
                "fatal: report histogram has 0 bin counts that do not "
                "add up to its total 5");
    std::remove(path.c_str());
}

TEST(CampaignDeath, ShardRunRejectsInvalidRequests)
{
    // Tracing a replicated campaign would interleave trace files.
    RunRequest traced = campaignRequest(0, 1, 1);
    traced.traceFile = ::testing::TempDir() + "wilis_campaign.trace";
    EXPECT_DEATH(runCampaignShard(traced), "reps=1");
    // ...and so would tracing one replication from several shards
    // (every shard but one would silently write nothing).
    RunRequest traced_shard = campaignRequest(0, 2, 1);
    traced_shard.spec.reps = 1;
    traced_shard.traceFile = traced.traceFile;
    EXPECT_DEATH(runCampaignShard(traced_shard), "single shard");

    // Checkpointing is a single-process, single-rep feature.
    RunRequest ckpt = campaignRequest(0, 2, 1);
    ckpt.spec.checkpoint.file =
        ::testing::TempDir() + "wilis_campaign.snap";
    ckpt.spec.checkpoint.everySlots = 10;
    EXPECT_DEATH(runCampaignShard(ckpt), "single shard");

    // Shard index out of range.
    EXPECT_EXIT(runCampaignShard(campaignRequest(3, 2, 1)),
                testing::ExitedWithCode(1),
                "fatal: campaign shard 3/2 out of range");
}
