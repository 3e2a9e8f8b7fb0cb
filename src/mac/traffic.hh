/**
 * @file
 * Per-user traffic models and the head-of-line packet queue feeding
 * the per-cell scheduler of the multi-cell network simulator.
 *
 * Three arrival processes are modeled:
 *  - "full_buffer" -- the user always has a frame to send (the
 *    classic capacity-evaluation workload); nothing queues.
 *  - "poisson"     -- frames arrive as an independent Poisson count
 *    per slot with a configurable mean load.
 *  - "onoff"       -- a two-state Markov burst model: geometric ON
 *    and OFF dwell times, Poisson arrivals while ON (the bursty
 *    workload that makes scheduling and queueing visible).
 *
 * On top of the data process, a per-slot Poisson *control* stream
 * (controlRate > 0) models the low-volume high-priority plane
 * (beacons, association, ARQ feedback in LL-SimpleWireless terms).
 * Both classes share one bounded queue drained under a pluggable
 * discipline: "fifo" (global arrival order), "priority" (control
 * strictly first) or "drop_head" (fifo service, but overflow evicts
 * the oldest queued packet instead of the arrival).
 *
 * Every draw is keyed by (user stream, slot) through the
 * counter-based generator, and the ON/OFF state evolves once per
 * slot in slot order, so a user's arrival sequence is a pure
 * function of (spec, stream seed) -- bit-identical for any worker
 * thread count, like the rest of the simulator.
 */

#ifndef WILIS_MAC_TRAFFIC_HH
#define WILIS_MAC_TRAFFIC_HH

#include <cstdint>
#include <vector>

#include "common/logging.hh"
#include "common/names.hh"
#include "common/random.hh"
#include "common/snapshot.hh"

namespace wilis {
namespace mac {

class PacketTrace; // mac/packet_trace.hh

/** Arrival process of one user's traffic source. */
enum class TrafficKind {
    /** Always backlogged; frames materialize at service time. */
    FullBuffer,
    /** Independent Poisson frame arrivals per slot. */
    Poisson,
    /** Markov ON/OFF bursts with Poisson arrivals while ON. */
    OnOff,
};

/** Config-file names of TrafficKind. */
inline constexpr auto kTrafficKindNames = nameTable<TrafficKind>(
    "traffic model", {{TrafficKind::FullBuffer, "full_buffer"},
                      {TrafficKind::Poisson, "poisson"},
                      {TrafficKind::OnOff, "onoff"}});

/** Traffic class of one packet. */
enum class TrafficClass : std::uint8_t {
    /** Control plane: low volume, scheduled ahead of data. */
    Control,
    /** Data plane: the bulk traffic the arrival model generates. */
    Data,
};

/** Trace-file names of TrafficClass. */
inline constexpr auto kTrafficClassNames = nameTable<TrafficClass>(
    "traffic class",
    {{TrafficClass::Control, "ctrl"}, {TrafficClass::Data, "data"}});

/** Queue discipline of the shared bounded packet queue. */
enum class QdiscKind {
    /** Serve in global arrival order; overflow drops the arrival. */
    Fifo,
    /**
     * Serve every queued control packet before any data packet
     * (arrival order within each class); overflow drops the
     * arrival.
     */
    StrictPriority,
    /**
     * Serve in global arrival order, but overflow evicts the
     * oldest queued packet to admit the arrival (fresh packets
     * beat stale ones under congestion).
     */
    DropHead,
};

/** Config-file names of QdiscKind. */
inline constexpr auto kQdiscKindNames = nameTable<QdiscKind>(
    "queue discipline", {{QdiscKind::Fifo, "fifo"},
                         {QdiscKind::StrictPriority, "priority"},
                         {QdiscKind::DropHead, "drop_head"},
                         {QdiscKind::StrictPriority, "strict_priority"}});

/** Declarative traffic-model parameters (per user). */
struct TrafficSpec {
    /** Arrival process of the data class. */
    TrafficKind kind = TrafficKind::FullBuffer;
    /**
     * Mean frame arrivals per slot: the Poisson rate ("poisson"),
     * or the rate while ON ("onoff"). Ignored by "full_buffer".
     */
    double load = 0.5;
    /** Mean ON dwell in slots (geometric; "onoff" only). */
    double onSlots = 32.0;
    /** Mean OFF dwell in slots (geometric; "onoff" only). */
    double offSlots = 96.0;
    /** Shared packet-queue capacity across both classes. */
    int queueLimit = 64;
    /** Queue discipline of the shared bounded queue. */
    QdiscKind qdisc = QdiscKind::Fifo;
    /**
     * Mean control-class Poisson arrivals per slot; 0 disables the
     * control plane (the default, preserving pre-class behavior
     * bit for bit).
     */
    double controlRate = 0.0;
};

/**
 * One queued or dequeued packet: its arrival slot (so the grant can
 * account head-of-line delay), its per-user sequence number
 * (assigned in arrival order, control before data within a slot)
 * and its class.
 */
struct Packet {
    /** Arrival slot. */
    std::uint64_t arrival = 0;
    /** Per-user packet sequence number (arrival order). */
    std::uint64_t seq = 0;
    /** Traffic class. */
    TrafficClass cls = TrafficClass::Data;
};

/**
 * One user's arrival processes plus the shared bounded packet
 * queue. Drive it once per slot with tick(), in slot order; pop()
 * dequeues under the configured discipline. When a PacketTrace is
 * bound, enqueues and queue drops are recorded as they happen.
 */
class TrafficSource
{
  public:
    /** @param stream_seed Per-user arrival stream key. */
    TrafficSource(const TrafficSpec &spec,
                  std::uint64_t stream_seed);

    /** The parameters in use. */
    const TrafficSpec &spec() const { return spec_; }

    /**
     * Record enqueue/drop events into @p trace (null detaches).
     * @param shard Trace recording lane (the caller's cell/user).
     * @param cell  Serving cell stamped on events.
     * @param user  Global user id stamped on events.
     */
    void
    bindTrace(PacketTrace *trace, int shard, int cell, int user)
    {
        trace_ = trace;
        traceShard_ = shard;
        traceCell_ = cell;
        traceUser_ = user;
    }

    /**
     * Advance to slot @p t: draw this slot's control arrivals, then
     * evolve the ON/OFF state and draw the data arrivals, enqueuing
     * under the configured discipline. Must be called once per slot
     * with increasing @p t.
     */
    void tick(std::uint64_t t);

    /** True if a packet is ready to send. */
    bool
    backlogged() const
    {
        return spec_.kind == TrafficKind::FullBuffer ||
               ctrl_.depth + data_.depth > 0;
    }

    /**
     * Dequeue the next packet under the configured discipline
     * ("full_buffer" synthesizes a data packet arriving at @p now
     * when the queue is empty). Only valid when backlogged().
     */
    Packet pop(std::uint64_t now);

    /**
     * Flush every queued packet at slot @p now -- the session-
     * departure teardown of the churn model. Each flushed packet
     * records a QueueDrop with arg0 = 2 (churn flush) and counts in
     * drops(), so per-packet trace accounting stays conserved
     * across a departure. Sequence numbers keep incrementing from
     * where they left off, so a rejoining session never reuses a
     * seq.
     * @return the number of packets flushed.
     */
    int flush(std::uint64_t now);

    /** Packets currently queued across both classes. */
    int depth() const { return ctrl_.depth + data_.depth; }

    /** True if a control packet is waiting (the urgency flag). */
    bool controlBacklogged() const { return ctrl_.depth > 0; }

    /** Total packets arrived so far (both classes). */
    std::uint64_t arrivals() const { return arrivals_; }

    /** Packets dropped on a full queue (either flavor). */
    std::uint64_t drops() const { return drops_; }

    /** True if the ON/OFF chain is currently ON. */
    bool on() const { return on_; }

    /**
     * Serialize the mutable state: the ON/OFF phase, both packet
     * rings (queued packets oldest first) and the arrival/drop/seq
     * counters. The RNG streams are counter-based -- pure functions
     * of (seed, slot) -- so no generator state is stored; resume at
     * slot t redraws exactly the arrivals an uninterrupted run
     * would. Trace bindings are not stored: the engine re-binds
     * after loadState().
     */
    void saveState(SnapshotWriter &w) const;

    /**
     * Restore state written by saveState() (same spec and seed). A
     * source bound to a trace first also rejects a queued packet
     * whose seq or arrival slot its trace columns cannot hold.
     */
    void loadState(SnapshotReader &r);

  private:
    /**
     * One class's ring of queued packets (arrival order). The ring
     * starts empty and grows on demand: a push into a full ring
     * doubles it (from kMinRing, at most to the queue limit) and
     * re-linearises the queued packets at slot 0, so a user whose
     * queue stays short holds a short ring, not queue_limit packets.
     */
    struct Ring {
        static constexpr int kMinRing = 4;

        int head = 0;
        int depth = 0;
        std::vector<Packet> slots; // capacity = slots.size()

        const Packet &
        front() const
        {
            return slots[static_cast<size_t>(head)];
        }

        Packet
        popFront()
        {
            Packet p = slots[static_cast<size_t>(head)];
            head = (head + 1) % static_cast<int>(slots.size());
            --depth;
            return p;
        }

        /** Append @p p, growing first if full (depth < @p limit). */
        void pushBack(const Packet &p, int limit);
    };

    /**
     * Poisson count from @p slot_stream, given exp(-mean) (the
     * constructor computes it once per class).
     */
    static int poissonFrom(const CounterRng &slot_stream,
                           double exp_neg_mean);

    void push(TrafficClass cls, std::uint64_t arrival_slot);
    /**
     * Take the next packet seq; fatal on a traced source once it
     * would pass the trace's 32-bit seq column.
     */
    std::uint64_t nextSeq();
    void evictOldest(std::uint64_t now);
    /** @p reason is the QueueDrop arg0 code (see PacketEvent). */
    void traceDrop(const Packet &p, std::uint64_t now,
                   std::int64_t reason);

    // Member order is deliberate: the engines call tick() and
    // backlogged() for every user every slot, and with 10k+ sources
    // scanned per slot the idle path must stay within the first two
    // cache lines -- spec_/rng_/transitions_/on_, the two exp(-mean)
    // Poisson limits plus the ring head/depth words (the constructor
    // static_asserts the last of them ends by byte 128).
    // Arrival-only state (counters, the control stream, the ring
    // payloads, trace plumbing) sits behind them.
    TrafficSpec spec_;
    CounterRng rng_;
    /**
     * ON/OFF dwell-transition stream, double-forked so it can
     * never collide with the per-slot Poisson sub-streams
     * rng_.fork(t) (a single fork keyed by the raw slot index).
     */
    CounterRng transitions_;
    bool on_ = false;
    /** exp(-load) and exp(-controlRate), the Poisson draws' limits. */
    double expLoad_ = 1.0;
    double expCtrl_ = 1.0;
    Ring ctrl_; // control class (controlRate > 0 only)
    Ring data_; // data class (non-full-buffer kinds only)
    std::uint64_t arrivals_ = 0;
    std::uint64_t drops_ = 0;
    /** Next per-user packet sequence number (arrival order). */
    std::uint64_t pktSeq_ = 0;
    /**
     * Control-arrival stream root: the same double-fork family as
     * transitions_ with a distinct second key, forked once more per
     * slot for the control Poisson draws -- disjoint from both the
     * data sub-streams and the dwell draws.
     */
    CounterRng ctrlRng_;
    PacketTrace *trace_ = nullptr;
    int traceShard_ = 0;
    int traceCell_ = 0;
    int traceUser_ = 0;
};

} // namespace mac
} // namespace wilis

#endif // WILIS_MAC_TRAFFIC_HH
