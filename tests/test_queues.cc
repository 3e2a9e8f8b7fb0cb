/**
 * @file
 * Property-style tests of the queue disciplines, the class-aware
 * scheduler arbitration and the ARQ ordering invariants, driven by
 * randomized (but seeded, hence reproducible) arrival streams:
 *  - bounded queues never exceed queue_limit under any discipline;
 *  - strict priority never inverts a control/data pop and preserves
 *    arrival order within each class;
 *  - drop_head evicts the oldest queued packet, so the survivors of
 *    an overload are exactly the newest arrivals;
 *  - the growable packet rings match a std::deque model of the
 *    queue packet for packet, across a save/load round trip too;
 *  - the scheduler's urgent mask restricts both RR and PF to the
 *    urgent subset without disturbing the no-urgent path;
 *  - fixed contention charges k slots for a k-contended grant;
 *  - ARQ in-order delivery shows up in the trace as strictly
 *    increasing, duplicate-free ack sequences per user.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/random.hh"
#include "common/snapshot.hh"
#include "mac/packet_trace.hh"
#include "mac/scheduler.hh"
#include "mac/traffic.hh"
#include "sim/network_sim.hh"

using namespace wilis;
using namespace wilis::sim;

namespace {

std::string
calibrationPath()
{
    return std::string(WILIS_SOURCE_DIR) +
           "/data/network_calibration.txt";
}

mac::TrafficSpec
overloadSpec(mac::QdiscKind qdisc, double control_rate = 0.0)
{
    mac::TrafficSpec spec;
    spec.kind = mac::TrafficKind::Poisson;
    spec.load = 1.5; // ~3x a one-pop-per-slot service rate
    spec.queueLimit = 8;
    spec.qdisc = qdisc;
    spec.controlRate = control_rate;
    return spec;
}

} // namespace

// --------------------------------------------------- queue bounds

TEST(Queues, DepthNeverExceedsQueueLimitUnderAnyDiscipline)
{
    for (auto qdisc :
         {mac::QdiscKind::Fifo, mac::QdiscKind::StrictPriority,
          mac::QdiscKind::DropHead}) {
        for (std::uint64_t seed = 1; seed <= 8; ++seed) {
            mac::TrafficSource src(overloadSpec(qdisc, 0.2), seed);
            // Service pattern randomized by an independent stream:
            // pop in ~40% of slots, so the queue slams into its
            // bound and recovers repeatedly.
            const CounterRng service(seed * 7919);
            for (std::uint64_t t = 0; t < 2000; ++t) {
                src.tick(t);
                ASSERT_LE(src.depth(), 8)
                    << "qdisc " << mac::kQdiscKindNames.name(qdisc)
                    << " seed " << seed << " slot " << t;
                if (src.backlogged() && service.doubleAt(t) < 0.4)
                    src.pop(t);
            }
            EXPECT_GT(src.drops(), 0u)
                << "3x overload must overflow an 8-deep queue";
        }
    }
}

// ----------------------------------------------- strict priority

TEST(Queues, StrictPriorityNeverInvertsAndKeepsPerClassOrder)
{
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        mac::TrafficSource src(
            overloadSpec(mac::QdiscKind::StrictPriority, 0.3),
            seed);
        const CounterRng service(seed * 104729);
        std::map<mac::TrafficClass, std::uint64_t> last;
        std::uint64_t ctrl_pops = 0;
        for (std::uint64_t t = 0; t < 2000; ++t) {
            src.tick(t);
            if (!src.backlogged() || service.doubleAt(t) >= 0.6)
                continue;
            const bool ctrl_waiting = src.controlBacklogged();
            const mac::Packet p = src.pop(t);
            if (ctrl_waiting) {
                ASSERT_EQ(p.cls, mac::TrafficClass::Control)
                    << "seed " << seed << " slot " << t
                    << ": data popped past waiting control";
            }
            ctrl_pops += p.cls == mac::TrafficClass::Control;
            // Arrival order within the class: per-user seqs are
            // assigned in arrival order, so they must come out
            // increasing per class.
            auto it = last.find(p.cls);
            if (it != last.end()) {
                ASSERT_GT(p.seq, it->second)
                    << "seed " << seed << " slot " << t;
            }
            last[p.cls] = p.seq;
        }
        EXPECT_GT(ctrl_pops, 0u) << "control plane must carry";
    }
}

TEST(Queues, FifoPopsInGlobalArrivalOrderAcrossClasses)
{
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        mac::TrafficSource src(
            overloadSpec(mac::QdiscKind::Fifo, 0.3), seed);
        const CounterRng service(seed * 15485863);
        std::uint64_t last = 0;
        bool first = true;
        for (std::uint64_t t = 0; t < 2000; ++t) {
            src.tick(t);
            if (!src.backlogged() || service.doubleAt(t) >= 0.6)
                continue;
            const mac::Packet p = src.pop(t);
            if (!first) {
                ASSERT_GT(p.seq, last)
                    << "seed " << seed << " slot " << t
                    << ": fifo must serve global arrival order";
            }
            last = p.seq;
            first = false;
        }
    }
}

// -------------------------------------------------- drop_head

TEST(Queues, DropHeadEvictsOldestSoSurvivorsAreTheNewest)
{
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        mac::TrafficSpec spec = overloadSpec(mac::QdiscKind::DropHead);
        mac::TrafficSource src(spec, seed);
        // Never service: every overflow evicts the head, so the
        // queue must end up holding exactly the newest queueLimit
        // arrivals.
        for (std::uint64_t t = 0; t < 200; ++t)
            src.tick(t);
        const std::uint64_t total = src.arrivals();
        ASSERT_GT(src.drops(), 0u);
        ASSERT_EQ(src.depth(), spec.queueLimit);
        std::uint64_t expect = total -
                               static_cast<std::uint64_t>(
                                   spec.queueLimit);
        while (src.backlogged()) {
            const mac::Packet p = src.pop(200);
            ASSERT_EQ(p.seq, expect)
                << "seed " << seed
                << ": survivors must be the newest arrivals in "
                   "order";
            ++expect;
        }
        EXPECT_EQ(expect, total);
    }
}

TEST(Queues, DropHeadTraceRecordsHeadEvictionsOfTheOldest)
{
    mac::TrafficSpec spec = overloadSpec(mac::QdiscKind::DropHead);
    mac::TrafficSource src(spec, 5);
    mac::PacketTrace trace(1);
    src.bindTrace(&trace, 0, 0, 0);
    for (std::uint64_t t = 0; t < 120; ++t)
        src.tick(t);
    trace.finalize();
    std::uint64_t enqueues = 0;
    std::uint64_t evictions = 0;
    std::uint64_t last_evicted = 0;
    for (const mac::PacketTrace::Entry &e : trace.entries()) {
        if (e.event == mac::PacketEvent::Enqueue)
            ++enqueues;
        if (e.event != mac::PacketEvent::QueueDrop)
            continue;
        EXPECT_EQ(e.arg0, 1) << "drop_head never tail-drops";
        EXPECT_GE(e.arg1, 0) << "evicted age in slots";
        if (evictions) {
            EXPECT_GT(e.seq, last_evicted)
                << "evictions proceed from the oldest forward";
        }
        last_evicted = e.seq;
        ++evictions;
    }
    EXPECT_EQ(enqueues, src.arrivals())
        << "drop_head admits every arrival";
    EXPECT_EQ(evictions, src.drops());
}

TEST(Queues, FifoTailDropsAreTracedAsArrivalDrops)
{
    mac::TrafficSpec spec = overloadSpec(mac::QdiscKind::Fifo);
    mac::TrafficSource src(spec, 5);
    mac::PacketTrace trace(1);
    src.bindTrace(&trace, 0, 0, 0);
    for (std::uint64_t t = 0; t < 120; ++t)
        src.tick(t);
    trace.finalize();
    std::uint64_t tail_drops = 0;
    for (const mac::PacketTrace::Entry &e : trace.entries()) {
        if (e.event != mac::PacketEvent::QueueDrop)
            continue;
        EXPECT_EQ(e.arg0, 0) << "fifo drops the arrival itself";
        EXPECT_EQ(e.arg1, 0) << "a dropped arrival has age 0";
        ++tail_drops;
    }
    EXPECT_EQ(tail_drops, src.drops());
    ASSERT_GT(tail_drops, 0u);
}

// ------------------------------------ growable rings vs a model

namespace {

/**
 * The shared bounded queue as a pair of std::deques: what a
 * TrafficSource must hold after any arrival and pop sequence.
 */
struct QueueModel {
    mac::QdiscKind qdisc;
    int limit;
    std::deque<mac::Packet> ctrl, data;
    std::uint64_t drops = 0;

    int
    depth() const
    {
        return static_cast<int>(ctrl.size() + data.size());
    }

    void
    arrive(const mac::Packet &p)
    {
        if (depth() >= limit) {
            ++drops;
            if (qdisc != mac::QdiscKind::DropHead)
                return;
            headOf(false).pop_front(); // the globally oldest
        }
        if (p.cls == mac::TrafficClass::Control)
            ctrl.push_back(p);
        else
            data.push_back(p);
    }

    mac::Packet
    pop()
    {
        std::deque<mac::Packet> &q =
            headOf(qdisc == mac::QdiscKind::StrictPriority);
        const mac::Packet p = q.front();
        q.pop_front();
        return p;
    }

    /**
     * The class whose head goes next: control first if
     * @p ctrl_first and any is queued, else the older head.
     */
    std::deque<mac::Packet> &
    headOf(bool ctrl_first)
    {
        if (ctrl.empty())
            return data;
        if (data.empty() || ctrl_first)
            return ctrl;
        return ctrl.front().seq < data.front().seq ? ctrl : data;
    }
};

/**
 * Every arrival of @p spec's source @p seed over @p slots slots, in
 * arrival order: recorded as Enqueue events of a twin source whose
 * queue never fills and is never served, so the list does not
 * depend on the queue under test.
 */
std::vector<mac::PacketTrace::Entry>
arrivalsOf(mac::TrafficSpec spec, std::uint64_t seed,
           std::uint64_t slots)
{
    spec.queueLimit = 1 << 20;
    mac::TrafficSource twin(spec, seed);
    mac::PacketTrace trace(1);
    twin.bindTrace(&trace, 0, 0, 0);
    for (std::uint64_t t = 0; t < slots; ++t)
        twin.tick(t);
    trace.finalize();
    EXPECT_EQ(twin.drops(), 0u);
    // One user: the canonical order is by seq, i.e. arrival order.
    return {trace.entries().begin(), trace.entries().end()};
}

/** The snapshot bytes of @p src. */
std::string
snapshot(const mac::TrafficSource &src)
{
    SnapshotWriter w(1, "queues");
    src.saveState(w);
    return w.bytes();
}

/** A source of @p spec and @p seed restored from @p bytes. */
std::unique_ptr<mac::TrafficSource>
restore(const std::string &bytes, const mac::TrafficSpec &spec,
        std::uint64_t seed)
{
    SnapshotReader r = SnapshotReader::fromBytes(bytes, 1, "queues");
    auto src = std::make_unique<mac::TrafficSource>(spec, seed);
    src->loadState(r);
    r.done();
    return src;
}

void
expectSamePacket(const mac::Packet &a, const mac::Packet &b)
{
    EXPECT_EQ(a.seq, b.seq);
    EXPECT_EQ(a.arrival, b.arrival);
    EXPECT_EQ(a.cls, b.cls);
}

} // namespace

TEST(Queues, GrowableRingsMatchADequeModelAcrossSaveLoad)
{
    // A 37-packet limit is no power of two, so the rings grow
    // 4, 8, 16, 32 and then stop at 37 with a wrapped head; 2x
    // overload in bursts drives each queue into its limit and back.
    constexpr int kLimit = 37;
    constexpr std::uint64_t kSlots = 3000;
    for (auto qdisc :
         {mac::QdiscKind::Fifo, mac::QdiscKind::DropHead,
          mac::QdiscKind::StrictPriority}) {
        for (auto kind :
             {mac::TrafficKind::Poisson, mac::TrafficKind::OnOff}) {
            mac::TrafficSpec spec;
            spec.kind = kind;
            spec.load = kind == mac::TrafficKind::OnOff ? 3.0 : 1.2;
            spec.onSlots = 40.0;
            spec.offSlots = 40.0;
            spec.queueLimit = kLimit;
            spec.qdisc = qdisc;
            spec.controlRate = 0.3;
            const std::uint64_t seed = 11;
            std::string label(mac::kQdiscKindNames.name(qdisc));
            label += " ";
            label += mac::kTrafficKindNames.name(kind);
            SCOPED_TRACE(label);
            const std::vector<mac::PacketTrace::Entry> arrivals =
                arrivalsOf(spec, seed, kSlots);

            mac::TrafficSource src(spec, seed);
            QueueModel model{qdisc, kLimit, {}, {}, 0};
            // Restored from a snapshot taken at a depth strictly
            // between two growth steps; from then on it must track
            // the source that was never interrupted.
            std::unique_ptr<mac::TrafficSource> resumed;
            const CounterRng service(seed * 7919);
            size_t next = 0;
            int max_depth = 0;
            std::uint64_t ctrl_pops = 0;
            for (std::uint64_t t = 0; t < kSlots; ++t) {
                src.tick(t);
                if (resumed)
                    resumed->tick(t);
                while (next < arrivals.size() && arrivals[next].slot == t) {
                    const mac::PacketTrace::Entry &a = arrivals[next++];
                    model.arrive(mac::Packet{t, a.seq, a.cls});
                }
                ASSERT_EQ(src.depth(), model.depth()) << "slot " << t;
                ASSERT_EQ(src.drops(), model.drops) << "slot " << t;
                ASSERT_EQ(src.arrivals(), next) << "slot " << t;
                ASSERT_EQ(src.controlBacklogged(), !model.ctrl.empty());
                max_depth = std::max(max_depth, src.depth());
                if (!resumed && model.data.size() > 16 &&
                    model.data.size() < 32)
                    resumed = restore(snapshot(src), spec, seed);
                if (resumed) {
                    ASSERT_EQ(resumed->depth(), src.depth());
                    ASSERT_EQ(resumed->drops(), src.drops());
                    ASSERT_EQ(resumed->arrivals(), src.arrivals());
                    ASSERT_EQ(resumed->on(), src.on());
                }
                if (!src.backlogged() || service.doubleAt(t) >= 0.5)
                    continue;
                const mac::Packet want = model.pop();
                ctrl_pops += want.cls == mac::TrafficClass::Control;
                expectSamePacket(src.pop(t), want);
                if (resumed)
                    expectSamePacket(resumed->pop(t), want);
            }
            EXPECT_EQ(next, arrivals.size());
            EXPECT_EQ(max_depth, kLimit) << "bursts must hit the limit";
            EXPECT_GT(src.drops(), 0u);
            EXPECT_GT(ctrl_pops, 0u);
            EXPECT_NE(resumed, nullptr) << "no depth in (16, 32) to resume at";
        }
    }
}

TEST(Queues, LoadStateRejectsADepthOverTheQueueLimit)
{
    mac::TrafficSpec spec = overloadSpec(mac::QdiscKind::Fifo);
    spec.queueLimit = 12;
    mac::TrafficSource deep(spec, 3);
    for (std::uint64_t t = 0; t < 100; ++t)
        deep.tick(t);
    ASSERT_EQ(deep.depth(), 12);
    spec.queueLimit = 11;
    EXPECT_EXIT(restore(snapshot(deep), spec, 3), testing::ExitedWithCode(1),
                "traffic queue depth 12 over its 11-packet limit");
}

TEST(Queues, TracedSeqPastThe32BitColumnIsFatal)
{
    // A source restored at seq 2^32-1, the last value the trace's
    // seq column holds (saveState() writes the next seq last, as a
    // little-endian u64): that packet still records, the one after
    // it is fatal -- but only when a trace is bound.
    const mac::TrafficSpec spec = overloadSpec(mac::QdiscKind::Fifo);
    std::string bytes = snapshot(mac::TrafficSource(spec, 3));
    for (size_t i = 0; i < 8; ++i)
        bytes[bytes.size() - 8 + i] =
            static_cast<char>((std::uint64_t{UINT32_MAX} >> (8 * i)) & 0xFF);
    const auto arrive_twice = [&](bool traced) {
        const std::unique_ptr<mac::TrafficSource> src =
            restore(bytes, spec, 3);
        mac::PacketTrace trace(1);
        if (traced)
            src->bindTrace(&trace, 0, 0, 7);
        for (std::uint64_t t = 0; src->arrivals() < 2; ++t)
            src->tick(t);
    };
    arrive_twice(false);
    EXPECT_EXIT(arrive_twice(true), testing::ExitedWithCode(1),
                "user 7's packet seq would pass 2\\^32-1");
}

TEST(Queues, LoadStateRejectsATracedPacketPastTheTraceColumns)
{
    // A packet queued at slot 2^31 is legal state for an untraced
    // source, but a traced one would record its age or wait into a
    // 32-bit column: restoring it into a traced source is fatal.
    const mac::TrafficSpec spec = overloadSpec(mac::QdiscKind::Fifo);
    mac::TrafficSource late(spec, 3);
    std::uint64_t t = mac::PacketTrace::kMaxSlots;
    while (late.depth() == 0)
        late.tick(t++);
    const std::string bytes = snapshot(late);
    EXPECT_EQ(restore(bytes, spec, 3)->depth(), late.depth());
    const auto restore_traced = [&] {
        SnapshotReader r = SnapshotReader::fromBytes(bytes, 1, "queues");
        mac::PacketTrace trace(1);
        mac::TrafficSource src(spec, 3);
        src.bindTrace(&trace, 0, 0, 7);
        src.loadState(r);
    };
    EXPECT_EXIT(restore_traced(), testing::ExitedWithCode(1),
                "traced packet .*arrival 2147483648");
}

// ------------------------------------- class-aware arbitration

TEST(Queues, SchedulerUrgentMaskRestrictsRoundRobinAndPf)
{
    const std::vector<std::uint8_t> elig = {1, 1, 1, 1};
    const std::vector<std::uint8_t> urgent = {0, 1, 0, 1};
    const std::vector<double> inst = {4.0, 1.0, 3.0, 0.5};
    auto rate = [&](int u) { return inst[static_cast<size_t>(u)]; };

    for (auto kind : {mac::SchedulerKind::RoundRobin,
                      mac::SchedulerKind::ProportionalFair}) {
        mac::CellScheduler::Config cfg;
        cfg.kind = kind;
        mac::CellScheduler sched(cfg, 4);
        for (int round = 0; round < 12; ++round) {
            const int pick = sched.pick(elig, inst, rate, &urgent);
            EXPECT_TRUE(pick == 1 || pick == 3)
                << mac::kSchedulerKindNames.name(kind) << " round "
                << round
                << ": picked a non-urgent user past urgent ones";
            sched.update(pick, 1000.0);
        }
        // No urgent users -> the mask must be a no-op: same picks
        // as an unmasked pick on a fresh twin.
        mac::CellScheduler a(cfg, 4);
        mac::CellScheduler b(cfg, 4);
        const std::vector<std::uint8_t> none = {0, 0, 0, 0};
        for (int round = 0; round < 12; ++round) {
            const int pa = a.pick(elig, inst, rate, &none);
            const int pb = b.pick(elig, inst, rate);
            EXPECT_EQ(pa, pb)
                << mac::kSchedulerKindNames.name(kind) << " round "
                << round;
            a.update(pa, 1000.0);
            b.update(pb, 1000.0);
        }
    }
}

TEST(Queues, FixedContentionChargesKSlotsPerContestedGrant)
{
    // grid-3x3 with full-buffer traffic: all 4 users of every cell
    // are always eligible, so every grant is contested by k = 4 and
    // the medium carries exactly one frame per 4 slots per cell.
    NetworkSpec spec = networkPreset("grid-3x3");
    spec.calibrationFile = calibrationPath();
    spec.traffic.kind = mac::TrafficKind::FullBuffer;
    spec.scheduler.contention = mac::ContentionMode::Fixed;
    const std::uint64_t slots = 120;
    NetworkResult res = NetworkSim(spec).run(slots, 2);
    EXPECT_EQ(res.aggregate.framesSent,
              9 * ((slots + 3) / 4))
        << "k=4 contention must quarter the grant rate";

    NetworkSpec free = spec;
    free.scheduler.contention = mac::ContentionMode::None;
    NetworkResult r_free = NetworkSim(free).run(slots, 2);
    EXPECT_EQ(r_free.aggregate.framesSent, 9 * slots)
        << "contention=none keeps one grant per cell per slot";
}

// ------------------------------------------------ ARQ invariants

TEST(Queues, ArqDeliveriesAreInOrderAndDuplicateFreePerUser)
{
    NetworkSpec spec = networkPreset("grid-3x3");
    spec.calibrationFile = calibrationPath();
    spec.trace = true;
    // Lossy enough that retransmissions actually happen.
    spec.traffic.kind = mac::TrafficKind::Poisson;
    spec.traffic.load = 0.6;
    NetworkResult res = NetworkSim(spec).run(250, 2);
    ASSERT_NE(res.trace, nullptr);
    ASSERT_GT(res.aggregate.retransmissions, 0u);

    std::map<int, std::uint64_t> last_done;
    std::uint64_t terminal = 0;
    for (const mac::PacketTrace::Entry &e : res.trace->entries()) {
        if (e.event != mac::PacketEvent::Ack &&
            e.event != mac::PacketEvent::Expire)
            continue;
        ++terminal;
        EXPECT_GE(e.arg0, 1) << "attempts consumed";
        auto it = last_done.find(e.user);
        if (it != last_done.end()) {
            ASSERT_GT(e.seq, it->second)
                << "user " << e.user
                << ": deliveries must leave in arrival order";
        }
        last_done[e.user] = e.seq;
    }
    EXPECT_EQ(terminal,
              res.aggregate.delivered + res.aggregate.dropped)
        << "every packet terminates exactly once";
}

TEST(Queues, QdiscAndControlKeysRoundTripThroughConfig)
{
    NetworkSpec s = networkPreset("grid-3x3");
    s.traffic.qdisc = mac::QdiscKind::DropHead;
    s.traffic.controlRate = 0.125;
    s.scheduler.contention = mac::ContentionMode::Fixed;
    s.trace = true;
    NetworkSpec t = NetworkSpec::fromConfig(s.toConfig());
    EXPECT_EQ(t.traffic.qdisc, mac::QdiscKind::DropHead);
    EXPECT_DOUBLE_EQ(t.traffic.controlRate, 0.125);
    EXPECT_EQ(t.scheduler.contention, mac::ContentionMode::Fixed);
    EXPECT_TRUE(t.trace);
}
