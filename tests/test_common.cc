/**
 * @file
 * Tests for the shared utilities: statistics accumulators,
 * printf-style formatting, the text table renderer, the worker
 * team's forEach and worker-count resolver, and the logging death
 * paths.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <limits>
#include <numeric>
#include <set>
#include <thread>

#include "common/lockstep.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "common/stats.hh"
#include "common/table.hh"

using namespace wilis;

TEST(RunningStats, SampleVarianceConvention)
{
    // The n-1 (Bessel) convention, matching the n > 1 gate: {1,2,3}
    // has sample variance exactly 1 (population form would say 2/3).
    RunningStats st;
    st.add(1.0);
    st.add(2.0);
    st.add(3.0);
    EXPECT_EQ(st.count(), 3u);
    EXPECT_DOUBLE_EQ(st.mean(), 2.0);
    EXPECT_DOUBLE_EQ(st.variance(), 1.0);
    EXPECT_DOUBLE_EQ(st.stddev(), 1.0);

    // Degenerate counts stay gated to 0.
    RunningStats one;
    one.add(5.0);
    EXPECT_EQ(one.variance(), 0.0);
    EXPECT_EQ(RunningStats().variance(), 0.0);
}

TEST(RunningStats, LargeMeanSmallSpreadDoesNotCancel)
{
    // Raw sum-of-squares accumulation would lose every significant
    // digit here (sum_sq ~ n*1e16 against a unit spread) and report
    // variance 0; the offset-shifted moments must not.
    RunningStats st;
    for (int i = 0; i < 2000; ++i)
        st.add(1.0e8 + static_cast<double>(i % 2));
    EXPECT_NEAR(st.mean(), 1.0e8 + 0.5, 1e-6);
    EXPECT_NEAR(st.variance(), 0.25, 1e-3);

    // And merging two such shards keeps the spread visible too.
    RunningStats a, b;
    for (int i = 0; i < 1000; ++i) {
        a.add(1.0e8 + static_cast<double>(i % 2));
        b.add(1.0e8 + static_cast<double>((i + 1) % 2));
    }
    a.merge(b);
    EXPECT_NEAR(a.variance(), 0.25, 1e-3);
}

TEST(RunningStats, ShardMergeIsBitEqualToSinglePass)
{
    // The UserStats aggregation pattern: per-user shards accumulate
    // integer-valued latencies sequentially and merge in user order.
    // Integer samples keep every moment sum exact, so the merged
    // mean and variance must be BIT-equal to one single-pass
    // accumulation over the concatenated stream -- not merely close.
    SplitMix64 rng(0x57A75);
    RunningStats whole, shard_a, shard_b;
    for (int i = 0; i < 4096; ++i) {
        double latency_slots =
            static_cast<double>(rng.nextBelow(64)); // integer slots
        whole.add(latency_slots);
        (i < 2048 ? shard_a : shard_b).add(latency_slots);
    }
    shard_a.merge(shard_b);
    EXPECT_EQ(shard_a.count(), whole.count());
    EXPECT_EQ(shard_a.mean(), whole.mean());
    EXPECT_EQ(shard_a.variance(), whole.variance());
    EXPECT_EQ(shard_a.stddev(), whole.stddev());
}

TEST(Histogram, OutOfRangeAndNanSamplesClampToTheEdgeBins)
{
    // Huge and infinite samples land in the top bin, -inf and NaN in
    // bin 0; in-range samples keep their bins.
    Histogram h(10, 1.0, 0.0);
    h.add(1e300);
    h.add(std::numeric_limits<double>::infinity());
    h.add(-std::numeric_limits<double>::infinity());
    h.add(std::numeric_limits<double>::quiet_NaN());
    h.add(-1e300);
    h.add(3.5);
    h.add(9.99);
    EXPECT_EQ(h.total(), 7u);
    EXPECT_EQ(h.count(0), 3u);
    EXPECT_EQ(h.count(3), 1u);
    EXPECT_EQ(h.count(9), 3u);
}

TEST(Histogram, RestoreRejectsCountsThatDoNotAddUp)
{
    Histogram h(3, 1.0, 0.0);
    EXPECT_FALSE(h.restore({1, 2}, 3));
    EXPECT_FALSE(h.restore({1, 2, 3}, 7));
    // A sum that wraps around 2^64 onto the total is no match either.
    EXPECT_FALSE(h.restore({~0ull, 2, 0}, 1));
    EXPECT_EQ(h.total(), 0u);
    EXPECT_TRUE(h.restore({1, 2, 3}, 6));
    EXPECT_EQ(h.count(2), 3u);
}

TEST(Strprintf, FormatsLikePrintf)
{
    EXPECT_EQ(strprintf("x=%d", 42), "x=42");
    EXPECT_EQ(strprintf("%s/%s", "a", "b"), "a/b");
    EXPECT_EQ(strprintf("%.3f", 1.5), "1.500");
    EXPECT_EQ(strprintf("%5d|", 7), "    7|");
    EXPECT_EQ(strprintf("plain"), "plain");
}

TEST(Strprintf, LongStringsSurvive)
{
    std::string big(5000, 'q');
    EXPECT_EQ(strprintf("%s", big.c_str()).size(), 5000u);
}

TEST(Table, AlignsColumns)
{
    Table t({"a", "long header", "c"});
    t.addRow({"1", "2", "3"});
    t.addRow({"wide cell", "x", "y"});
    std::string out = t.render();

    // Header, separator, two rows.
    int lines = 0;
    for (char c : out)
        lines += c == '\n';
    EXPECT_EQ(lines, 4);

    // Every data line starts at the same column for field 2.
    size_t h = out.find("long header");
    size_t r1 = out.find("2");
    EXPECT_NE(h, std::string::npos);
    EXPECT_NE(r1, std::string::npos);
}

TEST(TableDeath, WrongArityPanics)
{
    Table t({"a", "b"});
    EXPECT_DEATH(t.addRow({"only one"}), "cells");
}

TEST(LockstepForEach, RunsEveryIndexExactlyOnce)
{
    LockstepTeam team(4);
    std::vector<std::atomic<int>> hits(257);
    team.forEach(257, [&](int, std::uint64_t i) {
        hits[static_cast<size_t>(i)]++;
    });
    for (const auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(LockstepForEach, ReusableAcrossCalls)
{
    LockstepTeam team(2);
    std::atomic<long> sum{0};
    for (int round = 0; round < 5; ++round) {
        sum = 0;
        team.forEach(100, [&](int, std::uint64_t i) {
            sum += static_cast<long>(i);
        });
        EXPECT_EQ(sum.load(), 4950);
    }
}

TEST(LockstepForEach, ZeroItemsIsNoOp)
{
    LockstepTeam team(2);
    bool ran = false;
    team.forEach(0, [&](int, std::uint64_t) { ran = true; });
    EXPECT_FALSE(ran);
}

TEST(LockstepForEach, SingleWorkerRunsInline)
{
    LockstepTeam team(1);
    const std::thread::id caller = std::this_thread::get_id();
    int n = 0;
    team.forEach(10, [&](int w, std::uint64_t) {
        EXPECT_EQ(w, 0);
        EXPECT_EQ(std::this_thread::get_id(), caller);
        n++;
    });
    EXPECT_EQ(n, 10);
}

TEST(LockstepForEach, AtMostTeamSizeWorkersRun)
{
    // Items block briefly, so every worker the team has gets to claim
    // some; a team that let its caller help on top of four workers
    // would show a fifth thread id.
    constexpr int kWorkers = 4;
    LockstepTeam team(kWorkers);
    std::vector<std::thread::id> ids(64);
    std::vector<int> workers(64, -1);
    team.forEach(64, [&](int w, std::uint64_t i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        ids[static_cast<size_t>(i)] = std::this_thread::get_id();
        workers[static_cast<size_t>(i)] = w;
    });
    std::set<std::thread::id> distinct(ids.begin(), ids.end());
    EXPECT_LE(distinct.size(), static_cast<size_t>(kWorkers));
    for (int w : workers) {
        EXPECT_GE(w, 0);
        EXPECT_LT(w, kWorkers);
    }
}

TEST(LockstepWorkerCount, ZeroMeansHardwareConcurrency)
{
    const int hw =
        static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
    EXPECT_EQ(LockstepTeam::workerCount(0, 1u << 20), hw);
}

TEST(LockstepWorkerCount, ClampsToTheItemCount)
{
    EXPECT_EQ(LockstepTeam::workerCount(8, 3), 3);
    EXPECT_EQ(LockstepTeam::workerCount(4, 100), 4);
    EXPECT_LE(LockstepTeam::workerCount(0, 2), 2);
}

TEST(LockstepWorkerCount, IsAtLeastOne)
{
    EXPECT_EQ(LockstepTeam::workerCount(4, 0), 1);
    EXPECT_EQ(LockstepTeam::workerCount(0, 0), 1);
}

TEST(LoggingDeath, PanicAborts)
{
    EXPECT_DEATH(wilis_panic("boom %d", 7), "boom 7");
}

TEST(LoggingDeath, FatalExits)
{
    EXPECT_EXIT(wilis_fatal("bad config %s", "x"),
                ::testing::ExitedWithCode(1), "bad config x");
}

TEST(LoggingDeath, AssertMessageIncludesCondition)
{
    EXPECT_DEATH(wilis_assert(1 == 2, "context %d", 5),
                 "assertion '1 == 2' failed");
}
