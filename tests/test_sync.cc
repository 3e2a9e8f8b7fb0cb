/**
 * @file
 * Semantics of the LockstepTeam (common/lockstep.hh): its barrier
 * protocol and its forEach loop, the primitives every engine's
 * determinism contract stands on. These run under the CI TSan leg
 * (threaded label), so the assertions here double as race detectors
 * over the primitives themselves.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <vector>

#include "common/lockstep.hh"

using namespace wilis;

TEST(Lockstep, BarrierSeparatesPhasesAcrossGenerations)
{
    constexpr int kWorkers = 8;
    constexpr int kGenerations = 500;
    LockstepTeam team(kWorkers);
    ASSERT_EQ(team.size(), kWorkers);

    // Phase A: each worker writes its own slot. Phase B: every
    // worker sums all slots. If the barrier's release/acquire
    // protocol leaked a generation, some worker would read a stale
    // slot and the per-generation sum check would fail (and TSan
    // would flag the unsynchronized write/read pair).
    std::vector<std::int64_t> slots(kWorkers, 0);
    std::vector<std::int64_t> sums(kWorkers, 0);
    std::atomic<int> mismatches{0};
    team.run([&](int w) {
        for (int g = 1; g <= kGenerations; ++g) {
            slots[static_cast<size_t>(w)] = g * (w + 1);
            team.barrier();
            std::int64_t sum = 0;
            for (int i = 0; i < kWorkers; ++i)
                sum += slots[static_cast<size_t>(i)];
            sums[static_cast<size_t>(w)] = sum;
            team.barrier();
            const std::int64_t expect =
                static_cast<std::int64_t>(g) * kWorkers *
                (kWorkers + 1) / 2;
            if (sum != expect)
                mismatches.fetch_add(1,
                                     std::memory_order_relaxed);
        }
    });
    EXPECT_EQ(mismatches.load(), 0);
}

TEST(Lockstep, TeamIsReusableAcrossRuns)
{
    LockstepTeam team(4);
    for (int round = 0; round < 3; ++round) {
        std::atomic<int> visits{0};
        team.run([&](int) {
            visits.fetch_add(1, std::memory_order_relaxed);
            team.barrier();
            visits.fetch_add(1, std::memory_order_relaxed);
        });
        EXPECT_EQ(visits.load(), 8) << "round " << round;
    }
}

TEST(Lockstep, SingleWorkerDegeneratesToInlineCall)
{
    LockstepTeam team(1);
    int calls = 0;
    team.run([&](int w) {
        EXPECT_EQ(w, 0);
        team.barrier(); // must be a no-op, not a hang
        ++calls;
    });
    EXPECT_EQ(calls, 1);
}

TEST(Lockstep, ForEachUnderChurn)
{
    // Many small jobs back to back: each forEach spawns and joins
    // its workers, and the shared index counter is rebuilt per call.
    LockstepTeam team(4);
    for (int job = 0; job < 50; ++job) {
        std::atomic<std::uint64_t> sum{0};
        const std::uint64_t items = 64;
        team.forEach(items, [&](int, std::uint64_t i) {
            sum.fetch_add(i + 1, std::memory_order_relaxed);
        });
        EXPECT_EQ(sum.load(), items * (items + 1) / 2);
    }
}
