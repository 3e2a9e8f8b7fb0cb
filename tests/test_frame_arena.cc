/**
 * @file
 * Tests for the frame arena and the zero-copy packet pipeline built
 * on it: bump allocation and reset semantics, block coalescing, and
 * the central tentpole claim -- a warmed-up Testbench::runFrame()
 * performs no heap allocations at all. The same counter checks the
 * proportional-fair pick's and the ARQ state machine's claims to
 * allocate nothing once warm, and its byte total bounds what a
 * multi-cell run allocates.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>

#include "common/frame_arena.hh"
#include "common/random.hh"
#include "mac/arq.hh"
#include "mac/scheduler.hh"
#include "sim/network_sim.hh"
#include "sim/scenario.hh"
#include "sim/testbench.hh"

using namespace wilis;

// ---------------------------------------------------------------
// Global allocation counters: every operator new in this test
// binary bumps the call count and adds its size to the byte total,
// so a region of code can be asserted allocation-free, or its heap
// use bounded.
// ---------------------------------------------------------------

static std::atomic<std::uint64_t> g_news{0};
static std::atomic<std::uint64_t> g_new_bytes{0};

void *
operator new(size_t sz)
{
    g_news.fetch_add(1, std::memory_order_relaxed);
    g_new_bytes.fetch_add(sz, std::memory_order_relaxed);
    if (void *p = std::malloc(sz ? sz : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](size_t sz)
{
    g_news.fetch_add(1, std::memory_order_relaxed);
    g_new_bytes.fetch_add(sz, std::memory_order_relaxed);
    if (void *p = std::malloc(sz ? sz : 1))
        return p;
    throw std::bad_alloc();
}

// Not inlined: GCC would otherwise see free() on operator new's
// memory inside gtest's test factories and warn
// (-Wmismatched-new-delete), though new is malloc here.
[[gnu::noinline]] void
operator delete(void *p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete[](void *p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void *p, size_t) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete[](void *p, size_t) noexcept
{
    std::free(p);
}

// ---------------------------------------------------------------

TEST(FrameArena, AllocatesDistinctAlignedSpans)
{
    FrameArena arena(256);
    auto a = arena.alloc<Bit>(7);
    auto b = arena.alloc<Sample>(3);
    auto c = arena.alloc<SoftBit>(5);
    EXPECT_EQ(a.size(), 7u);
    EXPECT_EQ(b.size(), 3u);
    EXPECT_EQ(c.size(), 5u);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(b.data()) %
                  alignof(Sample),
              0u);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(c.data()) %
                  alignof(SoftBit),
              0u);

    // Disjoint storage: writes through one span don't alias another.
    std::fill(a.begin(), a.end(), Bit(1));
    std::fill(c.begin(), c.end(), SoftBit(-3));
    EXPECT_EQ(a[6], 1);
    EXPECT_EQ(c[0], -3);
}

TEST(FrameArena, BytesUsedTracksAllocations)
{
    FrameArena arena(1024);
    EXPECT_EQ(arena.bytesUsed(), 0u);
    arena.alloc<Bit>(100);
    EXPECT_EQ(arena.bytesUsed(), 100u);
    arena.reset();
    EXPECT_EQ(arena.bytesUsed(), 0u);
    EXPECT_GE(arena.highWater(), 100u);
}

TEST(FrameArena, GrowsAndCoalescesOnReset)
{
    FrameArena arena(64);
    const std::uint64_t initial = arena.blockAllocations();

    // Overflow the first block several times.
    for (int i = 0; i < 4; ++i)
        arena.alloc<Bit>(200);
    EXPECT_GT(arena.blockAllocations(), initial);

    // After one reset the arena coalesces; repeating the same frame
    // shape must never allocate again.
    arena.reset();
    const std::uint64_t warmed = arena.blockAllocations();
    for (int frame = 0; frame < 5; ++frame) {
        for (int i = 0; i < 4; ++i)
            arena.alloc<Bit>(200);
        arena.reset();
    }
    EXPECT_EQ(arena.blockAllocations(), warmed);
}

TEST(FrameArena, DupCopies)
{
    FrameArena arena;
    const Bit src[4] = {1, 0, 1, 1};
    auto d = arena.dup<Bit>(std::span<const Bit>(src, 4));
    EXPECT_EQ(d[0], 1);
    EXPECT_EQ(d[1], 0);
    EXPECT_EQ(d[3], 1);
    EXPECT_NE(d.data(), src);
}

// ---------------------------------------------------------------
// The tentpole acceptance: after a one-packet warm-up, the whole
// transmit -> channel -> receive -> decode flow of runFrame() makes
// zero heap allocations, for every decoder and channel family.
// ---------------------------------------------------------------

namespace {

std::uint64_t
countRunFrameAllocs(sim::Testbench &tb, size_t payload_bits)
{
    // Warm up arenas and decoder scratch.
    for (std::uint64_t p = 0; p < 3; ++p)
        tb.runFrame(payload_bits, p);

    const std::uint64_t before =
        g_news.load(std::memory_order_relaxed);
    std::uint64_t errors = 0;
    for (std::uint64_t p = 3; p < 13; ++p)
        errors += tb.runFrame(payload_bits, p).bitErrors;
    const std::uint64_t after =
        g_news.load(std::memory_order_relaxed);
    (void)errors;
    return after - before;
}

} // namespace

TEST(ZeroCopyPipeline, RunFrameIsAllocationFreePerDecoder)
{
    for (const char *decoder : {"viterbi", "sova", "bcjr",
                                "bcjr-logmap"}) {
        sim::ScenarioSpec spec;
        spec.rate = 4;
        spec.rx.decoder = decoder;
        spec.channelCfg = li::Config::fromString("snr_db=8,seed=9");
        sim::Testbench tb(spec);
        EXPECT_EQ(countRunFrameAllocs(tb, 1000), 0u)
            << "decoder " << decoder;
    }
}

TEST(ZeroCopyPipeline, RunFrameIsAllocationFreePerChannel)
{
    for (const char *channel : {"awgn", "rayleigh", "multipath",
                                "interference"}) {
        sim::ScenarioSpec spec;
        spec.rate = 2;
        spec.channel = channel;
        spec.channelCfg = li::Config::fromString("snr_db=12,seed=4");
        sim::Testbench tb(spec);
        EXPECT_EQ(countRunFrameAllocs(tb, 800), 0u)
            << "channel " << channel;
    }
}

TEST(ZeroCopyPipeline, ArenaBlockCountStableAcrossPackets)
{
    sim::ScenarioSpec spec;
    spec.rate = 7; // largest frame footprint
    sim::Testbench tb(spec);
    tb.runFrame(1704, 0);
    tb.runFrame(1704, 1);
    const std::uint64_t warmed = tb.arena().blockAllocations();
    for (std::uint64_t p = 2; p < 10; ++p)
        tb.runFrame(1704, p);
    EXPECT_EQ(tb.arena().blockAllocations(), warmed);
}

TEST(ZeroCopyPipeline, WarmedArenaMatchesFreshTestbench)
{
    // Reusing a testbench's arena must not leak one packet into the
    // next: frame p from a warmed testbench equals frame p from a
    // fresh one.
    sim::ScenarioSpec spec;
    spec.rate = 5;
    spec.channelCfg = li::Config::fromString("snr_db=7,seed=11");
    sim::Testbench warmed_tb(spec);

    for (std::uint64_t p = 0; p < 5; ++p) {
        const sim::FrameResult warmed = warmed_tb.runFrame(900, p);
        sim::Testbench fresh_tb(spec);
        const sim::FrameResult fresh = fresh_tb.runFrame(900, p);

        EXPECT_TRUE(std::ranges::equal(warmed.txPayload, fresh.txPayload));
        EXPECT_TRUE(
            std::ranges::equal(warmed.rx.payload, fresh.rx.payload));
        EXPECT_EQ(warmed.bitErrors, fresh.bitErrors);
        ASSERT_EQ(warmed.rx.soft.size(), fresh.rx.soft.size());
        for (size_t i = 0; i < fresh.rx.soft.size(); ++i) {
            EXPECT_EQ(warmed.rx.soft[i].bit, fresh.rx.soft[i].bit);
            EXPECT_EQ(warmed.rx.soft[i].llr, fresh.rx.soft[i].llr);
        }
    }
}

TEST(HotPathAllocations, PfPickWithIntervalsIsAllocationFree)
{
    // After one warm-up pick has grown the candidate list to the
    // cell, picks with bounds, intervals, exact rates and an urgent
    // mask -- and the update() closing each slot -- allocate
    // nothing.
    mac::CellScheduler::Config cfg;
    cfg.kind = mac::SchedulerKind::ProportionalFair;
    const int n = 48;
    mac::CellScheduler sched(cfg, n);
    std::vector<std::uint8_t> elig(n, 1);
    std::vector<std::uint8_t> urgent(n, 0);
    std::vector<double> bound(n);
    std::vector<double> rate(n);
    std::uint64_t t = 0;
    auto exact = [&](int u) { return rate[static_cast<size_t>(u)]; };
    auto interval = [&](int u) {
        const double r = rate[static_cast<size_t>(u)];
        return mac::RateInterval{r * (1.0 - 1e-9), r * (1.0 + 1e-9)};
    };
    auto slot = [&] {
        for (size_t u = 0; u < rate.size(); ++u) {
            rate[u] = 1.0 + static_cast<double>((u * 7 + t * 13) % 29);
            bound[u] = 30.0 + static_cast<double>(u % 3);
        }
        urgent[static_cast<size_t>(t % n)] = t % 5 == 0;
        const int g = sched.pick(elig, bound, exact,
                                 t % 2 ? &urgent : nullptr, interval);
        sched.update(g, rate[static_cast<size_t>(g)]);
        ++t;
    };
    slot();
    const std::uint64_t before = g_news.load(std::memory_order_relaxed);
    for (int i = 0; i < 200; ++i)
        slot();
    EXPECT_EQ(g_news.load(std::memory_order_relaxed) - before, 0u);
}

TEST(HotPathAllocations, ArqSteadyStateIsAllocationFree)
{
    // arq.hh's claim: with the delivery vector reserved, a warmed-up
    // Arq allocates nothing in tick(), nextToSend() or
    // onSendResult(), under either discipline, across NACKs,
    // retransmissions and retry-budget drops.
    for (mac::ArqMode mode :
         {mac::ArqMode::SelectiveRepeat, mac::ArqMode::StopAndWait}) {
        mac::Arq::Config cfg;
        cfg.mode = mode;
        cfg.window = 8;
        cfg.ackDelaySlots = 2;
        cfg.maxAttempts = 4;
        mac::Arq arq(cfg);
        std::vector<mac::Arq::Delivery> out;
        out.reserve(static_cast<size_t>(cfg.window));
        SplitMix64 rng(0xA59);
        std::uint64_t t = 0;
        std::uint64_t delivered = 0;
        std::uint64_t dropped = 0;
        auto slot = [&] {
            out.clear();
            arq.tick(t, out);
            for (const mac::Arq::Delivery &d : out) {
                if (d.dropped)
                    ++dropped;
                else
                    ++delivered;
            }
            std::uint64_t seq = 0;
            if (arq.nextToSend(t, seq))
                arq.onSendResult(seq, rng.nextDouble() < 0.4);
            ++t;
        };
        for (int i = 0; i < 64; ++i)
            slot();
        const std::uint64_t before =
            g_news.load(std::memory_order_relaxed);
        for (int i = 0; i < 2000; ++i)
            slot();
        EXPECT_EQ(g_news.load(std::memory_order_relaxed) - before, 0u)
            << mac::kArqModeNames.name(mode);
        // The pattern exercised both outcomes of a frame.
        EXPECT_GT(delivered, 0u) << mac::kArqModeNames.name(mode);
        EXPECT_GT(dropped, 0u) << mac::kArqModeNames.name(mode);
    }
}

TEST(HotPathAllocations, PfMulticellRunAllocatesPerUserPlusMemo)
{
    // A run's heap use must scale with what it touches: a fixed
    // budget per user (ARQ windows, SoftRate, statistics, queue
    // rings sized by the depth they reached) plus the cross-run
    // |h|^2 memo, one 16-byte entry per (slot, cell). Neither a
    // memo per (slot, user) nor rings sized to queue_limit fit.
    sim::NetworkSpec spec = sim::networkPreset("dense-urban-10k");
    spec.calibrationFile =
        std::string(WILIS_SOURCE_DIR) + "/data/network_calibration.txt";
    spec.topology.rows = 2;
    spec.topology.cols = 2;
    spec.numUsers = 400;
    const std::uint64_t users = 400;
    const std::uint64_t cells = 4;
    const std::uint64_t slots = 2000;
    // About 4.6 KB per user here: stats histograms, ARQ window,
    // trace context and the rings a user's bursts grew.
    const std::uint64_t per_user = 8192;
    sim::NetworkSim sim(spec); // construction is not the run's
    const std::uint64_t before = g_new_bytes.load(std::memory_order_relaxed);
    const sim::NetworkResult res = sim.run(slots, 1);
    const std::uint64_t bytes =
        g_new_bytes.load(std::memory_order_relaxed) - before;
    ASSERT_GT(res.aggregate.framesSent, 0u);
    EXPECT_LT(bytes, per_user * users + slots * cells * 16)
        << bytes / users << " bytes per user";
}
