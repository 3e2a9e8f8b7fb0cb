/**
 * @file
 * Deterministic per-packet event trace of the upper stack.
 *
 * Every packet-visible MAC event -- enqueue, queue drop, scheduler
 * grant, transmission, in-order delivery (ack) and retry-budget
 * expiry -- is recorded with its slot timestamp and packet identity
 * (cell, user, traffic class, per-user sequence number). Engines
 * record into per-shard lanes (one shard per cell in the
 * multi-cell engines, one per user in the single-cell engine), so
 * recording is race-free without locks; finalize() then sorts each
 * shard in parallel straight into its slice of one array, in the
 * canonical order (cell, user, seq, slot, event), which is a total
 * key over the events one run can produce (the arguments and then
 * the class break any tie a hand-built trace has).
 *
 * That makes the finalized trace a pure function of the NetworkSpec:
 * independent of the worker-thread count, of the cell sharding, and
 * of whether the SoA engine or the per-user oracle the tests
 * compare it with produced it -- so a saved trace is
 * byte-diffable against any later run of the same spec, which is
 * the differential-testing workhorse pinning every MAC, scheduler
 * and engine change (tests/test_packet_trace.cc and the committed
 * goldens under data/).
 *
 * The text format is versioned and all-integer (the class and event
 * columns are fixed-name strings), so a committed fixture is stable
 * across platforms -- no floating-point formatting is involved.
 */

#ifndef WILIS_MAC_PACKET_TRACE_HH
#define WILIS_MAC_PACKET_TRACE_HH

#include <cstdint>
#include <memory>
#include <new>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "common/snapshot.hh"
#include "mac/traffic.hh"

namespace wilis {
namespace mac {

/** What happened to a packet at one slot. */
enum class PacketEvent : std::uint8_t {
    /** Entered its traffic queue (arg0 = queue depth after). */
    Enqueue,
    /**
     * Dropped from its traffic queue (arg0 = 0 for a tail-dropped
     * arrival on a full queue, 1 for a head-of-line eviction under
     * drop_head, 2 for a churn-departure flush; arg1 = the dropped
     * packet's age in slots).
     */
    QueueDrop,
    /**
     * Granted the slot by its cell's scheduler (arg0 = transmission
     * attempts after this grant, arg1 = queue wait in slots on the
     * first attempt, 0 on retransmissions).
     */
    Grant,
    /** Transmitted (arg0 = decoded clean, arg1 = rate index). */
    Tx,
    /**
     * Delivered in order by the ARQ (arg0 = attempts consumed,
     * arg1 = end-to-end latency in slots, arrival to delivery).
     */
    Ack,
    /**
     * Dropped by the ARQ after exhausting its retry budget
     * (arg0 = attempts consumed, arg1 = slots since arrival).
     */
    Expire,
    /**
     * Serving-cell handover (a per-user session event, not a
     * packet event: seq = 0, class = data). The entry's cell is
     * the *new* serving cell; arg0 = the old cell, arg1 = 1 when
     * the mobility layer classified it as a ping-pong.
     */
    Handover,
    /**
     * Churn session start (seq = 0, class = data; the entry's cell
     * is the cell joined). arg0 = the pre-departure serving cell,
     * arg1 = 0.
     */
    Join,
    /**
     * Churn session end (seq = 0, class = data; the entry's cell
     * is the cell left). arg0 = queued packets flushed, arg1 =
     * in-flight ARQ frames aborted by the departure.
     */
    Leave,
};

/** Trace-file names of PacketEvent. */
inline constexpr auto kPacketEventNames = nameTable<PacketEvent>(
    "packet event",
    {{PacketEvent::Enqueue, "enq"}, {PacketEvent::QueueDrop, "qdrop"},
     {PacketEvent::Grant, "grant"}, {PacketEvent::Tx, "tx"},
     {PacketEvent::Ack, "ack"}, {PacketEvent::Expire, "expire"},
     {PacketEvent::Handover, "ho"}, {PacketEvent::Join, "join"},
     {PacketEvent::Leave, "leave"}});

/**
 * The per-packet event log. Thread contract: record() calls must be
 * partitioned by shard (each shard written by exactly one thread at
 * a time); finalize() and everything after it are called from one
 * thread (finalize() and save() fan out over their own workers).
 *
 * The contract is ownership-based, not lock-based, so it is outside
 * what the clang thread-safety analysis can express; it is checked
 * dynamically instead: the CI TSan leg runs every threaded suite
 * over this class (shard-partitioned recording from all workers,
 * finalize on the joining thread), record()/finalize() misuse
 * panics via their assertions, and the byte-exact trace smokes pin
 * the result against re-sharding.
 */
class PacketTrace
{
  public:
    /**
     * Slots a traced run may span: below it every slot and every
     * slot difference an engine writes (queue ages, waits,
     * latencies) fits its 32-bit column; the other arguments are
     * small counts and ids. NetworkSim::run() rejects a traced run
     * of kMaxSlots slots or more before it allocates anything. A
     * packet seq can still outgrow 32 bits at a high load, so a
     * traced TrafficSource checks it where it is assigned.
     */
    static constexpr std::uint64_t kMaxSlots = std::uint64_t{1} << 31;

    /**
     * One traced event: four 32-bit columns, the two ids and two
     * one-byte enums, 28 bytes in all. The constructor takes the
     * fields in trace-column order, each at the width an engine
     * computes it in, and panics on a value its column cannot hold.
     */
    struct Entry {
        /** Slot timestamp. */
        std::uint32_t slot = 0;
        /** Per-user packet sequence number (arrival order). */
        std::uint32_t seq = 0;
        /** Event-specific argument (see PacketEvent). */
        std::int32_t arg0 = 0;
        /** Event-specific argument (see PacketEvent). */
        std::int32_t arg1 = 0;
        /** Serving cell (0 in single-cell runs). */
        std::int32_t cell = 0;
        /** Global user id. */
        std::int32_t user = 0;
        /** Traffic class of the packet. */
        TrafficClass cls = TrafficClass::Data;
        /** What happened. */
        PacketEvent event = PacketEvent::Enqueue;

        /** An all-zero enqueue of a data packet. */
        Entry() = default;

        /** The fields in the order a trace line prints them. */
        Entry(std::uint64_t slot_, std::int32_t cell_,
              std::int32_t user_, TrafficClass cls_,
              std::uint64_t seq_, PacketEvent event_,
              std::int64_t arg0_, std::int64_t arg1_)
            : slot(column<std::uint32_t>(slot_, "slot")),
              seq(column<std::uint32_t>(seq_, "seq")),
              arg0(column<std::int32_t>(arg0_, "arg0")),
              arg1(column<std::int32_t>(arg1_, "arg1")), cell(cell_),
              user(user_), cls(cls_), event(event_)
        {}

        /** Field-wise equality. */
        bool operator==(const Entry &other) const = default;

      private:
        /** @p v narrowed to column type T (panics if it does not fit). */
        template <class T, class V>
        static T
        column(V v, const char *name)
        {
            wilis_assert(std::in_range<T>(v), "trace %s %s out of range",
                         name, std::to_string(v).c_str());
            return static_cast<T>(v);
        }
    };

    /** Build a trace with @p shards race-free recording lanes. */
    explicit PacketTrace(int shards = 1);

    /** Append @p e to shard @p shard (pre-finalize only). */
    void record(int shard, const Entry &e);

    /**
     * Sort every shard on its own, @p threads at a time, into the
     * canonical (cell, user, seq, slot, event) order. A shard that
     * holds one cell is counting-sorted on (user, seq) straight into
     * its slice of the final array; a shard spanning several cells
     * or too sparse a (user, seq) range falls back to a comparison
     * sort, and shards whose key ranges overlap are sorted again as
     * one array. Pass the run's worker count; the result does not
     * depend on it, and save() formats on as many workers.
     * Idempotent; required before entries() / toText() / save() /
     * diff().
     */
    void finalize(int threads = 1);

    /** True once finalize() has run. */
    bool finalized() const { return finalized_; }

    /** The canonically ordered events (finalized traces only). */
    std::span<const Entry> entries() const;

    /** Serialize to the versioned text format. */
    std::string toText() const;

    /**
     * Write the toText() bytes to @p path without building the file
     * in memory: fixed-size blocks of entries are formatted on the
     * worker count finalize() was given and written in order from a
     * bounded set of buffers. Fatal naming the path and the OS
     * error on any open, write or close failure.
     */
    void save(const std::string &path) const;

    /**
     * Parse a trace saved by save(); fatal with path:line on a
     * missing file, a version-header mismatch or a malformed line
     * (not exactly eight fields, a number out of its column's range,
     * a negative cell or user id, an unknown class or event name).
     * The result is finalized.
     */
    static PacketTrace load(const std::string &path);

    /**
     * First divergence between two finalized traces, or the empty
     * string when they are identical. The message names the entry
     * index and shows both sides' text lines.
     */
    static std::string diff(const PacketTrace &a,
                            const PacketTrace &b);

    /**
     * Serialize the pre-finalize per-shard buffers (checkpoint
     * only; fatal on a finalized trace). Shards are written in
     * index order, which is the engines' cell order -- canonical
     * across engines and thread counts.
     */
    void saveState(SnapshotWriter &w) const;

    /**
     * Restore state written by saveState() (same shard count);
     * fatal unless every entry's cell lies in [0, @p cells) and its
     * user in [0, @p users).
     */
    void loadState(SnapshotReader &r, int cells, int users);

  private:
    /** Frees storage from allocEntries(). */
    struct FreeEntries {
        void operator()(Entry *p) const { ::operator delete(p); }
    };
    /** Uninitialized entry storage: written before it is read. */
    using EntryBuf = std::unique_ptr<Entry[], FreeEntries>;

    /** Storage for @p n entries, untouched until first written. */
    static EntryBuf
    allocEntries(size_t n)
    {
        return EntryBuf(
            static_cast<Entry *>(::operator new(n * sizeof(Entry))));
    }

    /**
     * One shard's recording lane: fixed-size blocks that are
     * appended to and never reallocated, so no entry is copied
     * before finalize().
     */
    struct Lane {
        /**
         * Entries per block: 192 KiB, above glibc's initial 128 KiB
         * mmap threshold, so a block freed in finalize() goes back
         * to the OS at once. Blocks below it stay in the heap and
         * raise a traced run's peak RSS.
         */
        static constexpr size_t kBlock = (192 << 10) / sizeof(Entry);

        std::vector<EntryBuf> blocks;
        /** Next free entry of the last block. */
        Entry *cur = nullptr;
        /** End of the last block. */
        Entry *end = nullptr;

        /** Entries recorded so far. */
        size_t
        size() const
        {
            return blocks.empty()
                       ? 0
                       : (blocks.size() - 1) * kBlock +
                             static_cast<size_t>(
                                 cur - blocks.back().get());
        }

        /** Entries in block @p b. */
        size_t
        blockSize(size_t b) const
        {
            return b + 1 < blocks.size() ? kBlock : size() - b * kBlock;
        }

        /** Open a fresh block (the last one is full). */
        void
        grow()
        {
            blocks.push_back(allocEntries(kBlock));
            cur = blocks.back().get();
            end = cur + kBlock;
        }

        /** Drop every block. */
        void
        clear()
        {
            blocks.clear();
            cur = end = nullptr;
        }
    };

    static void sortLane(Lane &lane, Entry *out);

    std::vector<Lane> lanes_;
    EntryBuf entries_;
    size_t size_ = 0;
    /** Worker count finalize() was given, reused by save(). */
    int threads_ = 1;
    bool finalized_ = false;
};

inline void
PacketTrace::record(int shard, const Entry &e)
{
    // Shard ownership (one recording worker per shard, finalize only
    // after the team joins) is barrier-phase discipline: no lock to
    // annotate, so it is checked dynamically -- these panics catch
    // lifecycle misuse, the CI TSan leg catches two workers sharing
    // a shard index.
    wilis_assert(!finalized_,
                 "record() into a finalized packet trace");
    wilis_assert(shard >= 0 &&
                     shard < static_cast<int>(lanes_.size()),
                 "trace shard %d out of %zu", shard, lanes_.size());
    Lane &lane = lanes_[static_cast<size_t>(shard)];
    if (lane.cur == lane.end)
        lane.grow();
    ::new (lane.cur++) Entry(e);
}

} // namespace mac
} // namespace wilis

#endif // WILIS_MAC_PACKET_TRACE_HH
