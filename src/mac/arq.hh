/**
 * @file
 * Link-layer Automatic Repeat-reQuest: Arq, a sequence-number state
 * machine (stop-and-wait or selective-repeat) driven slot-by-slot by
 * the network simulators (sim::NetworkSim and the multi-cell
 * engine), with delayed acknowledgements, windowed transmission,
 * in-order delivery and per-frame latency bookkeeping.
 */

#ifndef WILIS_MAC_ARQ_HH
#define WILIS_MAC_ARQ_HH

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/logging.hh"
#include "common/names.hh"
#include "common/snapshot.hh"

namespace wilis {
namespace mac {

/** Retransmission discipline of the sequence-number ARQ. */
enum class ArqMode {
    /** One frame in flight; the sender idles until its ACK returns. */
    StopAndWait,
    /**
     * Window of frames in flight; only NACKed frames are resent and
     * out-of-order successes are buffered for in-order delivery.
     */
    SelectiveRepeat,
};

/** Config-file names of ArqMode. */
inline constexpr auto kArqModeNames = nameTable<ArqMode>(
    "ARQ mode", {{ArqMode::StopAndWait, "stopwait"},
                 {ArqMode::SelectiveRepeat, "selective"},
                 {ArqMode::StopAndWait, "stop-and-wait"},
                 {ArqMode::SelectiveRepeat, "selective-repeat"}});

/**
 * Sequence-number ARQ state machine for a slotted link.
 *
 * The driver runs one slot at a time:
 *
 *   1. tick(now, out)       -- process acknowledgements that arrive
 *                              this slot; in-order deliveries (and
 *                              drops) are appended to @p out.
 *   2. nextToSend(now, seq) -- ask which sequence number to transmit
 *                              this slot, if any: the oldest NACKed
 *                              frame first, else a new frame if the
 *                              window has room, else idle.
 *   3. onSendResult(seq,ok) -- report the decode outcome of the
 *                              transmission; the resulting ACK/NACK
 *                              becomes visible to tick() at
 *                              now + ackDelaySlots.
 *
 * All state is bounded by the window, so a warmed-up instance
 * performs no heap allocations in steady state (the slot and
 * pending-ack rings are sized at construction).
 */
class Arq
{
  public:
    /** ARQ configuration. */
    struct Config {
        /** Retransmission discipline. */
        ArqMode mode = ArqMode::SelectiveRepeat;
        /** Window size (forced to 1 for StopAndWait). */
        int window = 8;
        /**
         * Total transmission attempts per frame (the first send
         * included) before it is dropped; 0 = never give up.
         */
        int maxAttempts = 8;
        /**
         * Slots between a transmission and its ACK/NACK becoming
         * visible to tick(). 0 means the result is applied
         * immediately in onSendResult() (deliveries still surface
         * at the next tick()).
         */
        std::uint64_t ackDelaySlots = 1;
    };

    /** One frame leaving the ARQ, in sequence order. */
    struct Delivery {
        /** Sequence number. */
        std::uint64_t seq = 0;
        /** Slots from first transmission to delivery. */
        std::uint64_t latencySlots = 0;
        /** Transmission attempts consumed. */
        int attempts = 0;
        /** True if the retry budget was exhausted (frame lost). */
        bool dropped = false;
    };

    explicit Arq(const Config &cfg)
        : cfg_(cfg),
          win(static_cast<size_t>(windowFor(cfg))),
          pending(static_cast<size_t>(windowFor(cfg)))
    {
        wilis_assert(cfg.window >= 1, "ARQ window %d < 1",
                     cfg.window);
        wilis_assert(cfg.maxAttempts >= 0, "ARQ max attempts %d < 0",
                     cfg.maxAttempts);
    }

    /** Effective window size (1 under StopAndWait). */
    int windowSize() const { return static_cast<int>(win.size()); }

    /** Next never-transmitted sequence number. */
    std::uint64_t nextSeq() const { return next_new; }

    /** Total retransmissions performed so far. */
    std::uint64_t retransmissions() const { return retrans; }

    /**
     * Transmission attempts consumed so far by @p seq. Valid for
     * frames still in the window (transmitted, not yet delivered);
     * 1 right after a frame's first nextToSend() grant.
     */
    int
    attemptsOf(std::uint64_t seq) const
    {
        return win[static_cast<size_t>(
                       seq % static_cast<std::uint64_t>(win.size()))]
            .attempts;
    }

    /**
     * Process acknowledgements arriving at slot @p now and append
     * any frames that become deliverable -- in sequence order -- to
     * @p out. Must be called with non-decreasing @p now.
     */
    void
    tick(std::uint64_t now, std::vector<Delivery> &out)
    {
        while (pending_count > 0 &&
               pending[pending_head].dueSlot <= now) {
            const PendingAck &ack = pending[pending_head];
            resolve(slotFor(ack.seq), ack.ok);
            pending_head = (pending_head + 1) % pending.size();
            --pending_count;
        }
        drainDeliverable(now, out);
    }

    /** True if a NACKed frame is waiting for retransmission. */
    bool hasResend() const { return resend_count > 0; }

    /**
     * Slot at which the oldest in-flight acknowledgement matures,
     * or UINT64_MAX when none is pending. The pending ring is
     * ordered by due slot (sends happen at strictly increasing
     * slots), so this bounds every queued acknowledgement.
     */
    std::uint64_t
    nextAckDue() const
    {
        return pending_count ? pending[pending_head].dueSlot
                             : UINT64_MAX;
    }

    /** True if the in-order head is already deliverable. */
    bool
    headHasDelivery() const
    {
        if (deliver_next >= next_new)
            return false;
        const Slot &head = win[static_cast<size_t>(
            deliver_next % static_cast<std::uint64_t>(win.size()))];
        return head.state == State::Acked ||
               head.state == State::Failed;
    }

    /**
     * True if tick(@p now) would be a no-op: no acknowledgement has
     * matured and nothing is deliverable. Lets slot-loop drivers
     * skip the per-slot ARQ walk for idle users.
     */
    bool
    quiescentAt(std::uint64_t now) const
    {
        return nextAckDue() > now && !headHasDelivery();
    }

    /** True if the window can admit a never-transmitted frame. */
    bool
    windowHasRoom() const
    {
        return next_new - deliver_next <
               static_cast<std::uint64_t>(win.size());
    }

    /**
     * Sequence number to transmit at slot @p now.
     * @param allow_new Admit a never-transmitted frame when no
     *        retransmission is pending; pass false when the traffic
     *        queue has nothing new to offer (the scheduler-driven
     *        network simulator gates new frames on arrivals).
     * @return false if the link should stay idle this slot (window
     *         stalled on outstanding acknowledgements, or nothing
     *         to send).
     */
    bool
    nextToSend(std::uint64_t now, std::uint64_t &seq,
               bool allow_new = true)
    {
        // Oldest NACKed frame first.
        if (resend_count > 0) {
            for (std::uint64_t s = deliver_next; s < next_new; ++s) {
                Slot &slot = slotFor(s);
                if (slot.state == State::NeedsResend) {
                    slot.state = State::AwaitingAck;
                    --resend_count;
                    slot.sentAt = now;
                    ++slot.attempts;
                    ++retrans;
                    seq = s;
                    return true;
                }
            }
        }
        // Else a new frame if offered and the window has room.
        if (allow_new && windowHasRoom()) {
            Slot &slot = slotFor(next_new);
            slot.state = State::AwaitingAck;
            slot.firstTx = now;
            slot.sentAt = now;
            slot.attempts = 1;
            seq = next_new++;
            return true;
        }
        return false;
    }

    /**
     * Report the decode outcome of the transmission of @p seq handed
     * out by the last nextToSend() call.
     */
    void
    onSendResult(std::uint64_t seq, bool ok)
    {
        Slot &slot = slotFor(seq);
        wilis_assert(slot.state == State::AwaitingAck,
                     "result for seq %llu which is not in flight",
                     static_cast<unsigned long long>(seq));
        if (cfg_.ackDelaySlots == 0) {
            resolve(slot, ok);
            return;
        }
        wilis_assert(pending_count < pending.size(),
                     "ARQ pending-ack ring overflow");
        size_t tail =
            (pending_head + pending_count) % pending.size();
        pending[tail] = PendingAck{seq,
                                   slot.sentAt + cfg_.ackDelaySlots,
                                   ok};
        ++pending_count;
    }

    /**
     * Abort every in-flight frame at slot @p now -- the session
     * teardown of the churn model. Pending acknowledgements are
     * discarded; frames already received clean still deliver in
     * order (their payloads made it), while frames awaiting an
     * acknowledgement or a retransmission fail as dropped.
     * Deliveries append to @p out exactly like tick(), so packet
     * accounting stays conserved across a departure. Afterwards
     * the window is empty (quiescent at any slot) and sequence
     * numbers continue monotonically, so the same instance serves
     * the user's next session without seq reuse.
     */
    void
    abortAll(std::uint64_t now, std::vector<Delivery> &out)
    {
        pending_head = 0;
        pending_count = 0;
        resend_count = 0;
        for (std::uint64_t s = deliver_next; s < next_new; ++s) {
            Slot &slot = slotFor(s);
            if (slot.state == State::AwaitingAck ||
                slot.state == State::NeedsResend)
                slot.state = State::Failed;
        }
        drainDeliverable(now, out);
    }

    /**
     * Serialize the mutable state (checkpoint/resume). The window
     * and the pending-ack ring are written in canonical order --
     * window slots by index, pending acknowledgements oldest first
     * -- so two engines holding equal logical state write equal
     * bytes. The Config is not stored; it is re-derived from the
     * spec on resume.
     */
    void
    saveState(SnapshotWriter &w) const
    {
        w.marker(0x00515241); // "ARQ"
        for (const Slot &slot : win) {
            w.u8(static_cast<std::uint8_t>(slot.state));
            w.u64(slot.firstTx);
            w.u64(slot.sentAt);
            w.i64(slot.attempts);
        }
        w.u64(pending_count);
        for (size_t i = 0; i < pending_count; ++i) {
            const PendingAck &ack =
                pending[(pending_head + i) % pending.size()];
            w.u64(ack.seq);
            w.u64(ack.dueSlot);
            w.u8(ack.ok ? 1 : 0);
        }
        w.i64(resend_count);
        w.u64(next_new);
        w.u64(deliver_next);
        w.u64(retrans);
    }

    /**
     * Restore state written by saveState() (same Config) into a run
     * resuming at slot @p now, fatal unless it is a state the
     * protocol can reach by then: the in-window slots hold frames
     * and the others are free, no frame has more attempts than the
     * retry budget or the slots run, the resend counter matches the
     * NACKed frames, and the pending acknowledgements name each
     * in-flight frame exactly once.
     */
    void
    loadState(SnapshotReader &r, std::uint64_t now)
    {
        r.marker(0x00515241);
        // One attempt per slot, so a frame has at most `now`.
        const std::int64_t max_attempts = static_cast<std::int64_t>(
            std::min<std::uint64_t>(
                now, cfg_.maxAttempts > 0
                         ? static_cast<std::uint64_t>(cfg_.maxAttempts)
                         : std::numeric_limits<int>::max()));
        int in_flight = 0;
        int needs_resend = 0;
        for (Slot &slot : win) {
            slot.state = static_cast<State>(r.u8Below(
                static_cast<unsigned>(State::Failed) + 1,
                "ARQ slot state"));
            slot.firstTx = r.u64();
            slot.sentAt = r.u64();
            slot.attempts = static_cast<int>(
                r.i64In(0, max_attempts + 1, "ARQ attempt count"));
            in_flight += slot.state == State::AwaitingAck ? 1 : 0;
            needs_resend += slot.state == State::NeedsResend ? 1 : 0;
        }
        const std::uint64_t n = r.u64();
        if (n != static_cast<std::uint64_t>(in_flight))
            r.fail(strprintf("%llu pending ARQ acks for %d frames in "
                             "flight",
                             static_cast<unsigned long long>(n),
                             in_flight));
        pending_head = 0;
        pending_count = static_cast<size_t>(n);
        for (size_t i = 0; i < pending_count; ++i) {
            pending[i].seq = r.u64();
            pending[i].dueSlot = r.u64();
            pending[i].ok = r.u8Below(2, "ARQ ack flag") != 0;
        }
        const std::int64_t resends = r.i64();
        next_new = r.u64();
        deliver_next = r.u64();
        retrans = r.u64();

        if (resends != needs_resend)
            r.fail(strprintf("ARQ resend count %lld for %d NACKed "
                             "frames",
                             static_cast<long long>(resends),
                             needs_resend));
        resend_count = needs_resend;
        if (deliver_next > next_new ||
            next_new - deliver_next > win.size())
            r.fail(strprintf("ARQ window [%llu, %llu) is not within "
                             "%zu slots",
                             static_cast<unsigned long long>(
                                 deliver_next),
                             static_cast<unsigned long long>(next_new),
                             win.size()));
        // Exactly the slots of seqs [deliver_next, next_new) hold
        // frames.
        bool framed = static_cast<std::uint64_t>(std::count_if(
                          win.begin(), win.end(), [](const Slot &s) {
                              return s.state != State::Unused;
                          })) == next_new - deliver_next;
        for (std::uint64_t s = deliver_next; s < next_new; ++s)
            framed = framed && slotFor(s).state != State::Unused;
        if (!framed)
            r.fail("ARQ frames outside the window [deliver, next)");
        std::vector<bool> acked(win.size(), false);
        for (size_t i = 0; i < pending_count; ++i) {
            const std::uint64_t s = pending[i].seq;
            const size_t k = static_cast<size_t>(
                s % static_cast<std::uint64_t>(win.size()));
            if (s < deliver_next || s >= next_new || acked[k] ||
                win[k].state != State::AwaitingAck)
                r.fail(strprintf("pending ARQ ack for seq %llu, not "
                                 "a distinct frame in flight",
                                 static_cast<unsigned long long>(s)));
            acked[k] = true;
        }
    }

  private:
    enum class State : std::uint8_t {
        Unused,       // no frame occupies this window slot
        AwaitingAck,  // transmitted, acknowledgement in flight
        NeedsResend,  // NACKed with retry budget remaining
        Acked,        // received clean, awaiting in-order delivery
        Failed,       // retry budget exhausted, awaiting delivery
    };

    struct Slot {
        State state = State::Unused;
        std::uint64_t firstTx = 0;
        std::uint64_t sentAt = 0;
        int attempts = 0;
    };

    struct PendingAck {
        std::uint64_t seq = 0;
        std::uint64_t dueSlot = 0;
        bool ok = false;
    };

    static int
    windowFor(const Config &cfg)
    {
        return cfg.mode == ArqMode::StopAndWait ? 1 : cfg.window;
    }

    Slot &
    slotFor(std::uint64_t seq)
    {
        return win[static_cast<size_t>(
            seq % static_cast<std::uint64_t>(win.size()))];
    }

    void
    resolve(Slot &slot, bool ok)
    {
        // NeedsResend is entered only here and left only in
        // nextToSend(), so a simple counter keeps hasResend() O(1).
        if (ok) {
            slot.state = State::Acked;
        } else if (cfg_.maxAttempts == 0 ||
                   slot.attempts < cfg_.maxAttempts) {
            slot.state = State::NeedsResend;
            ++resend_count;
        } else {
            slot.state = State::Failed;
        }
    }

    void
    drainDeliverable(std::uint64_t now, std::vector<Delivery> &out)
    {
        while (deliver_next < next_new) {
            Slot &head = slotFor(deliver_next);
            if (head.state != State::Acked &&
                head.state != State::Failed)
                break;
            out.push_back(Delivery{deliver_next,
                                   now - head.firstTx,
                                   head.attempts,
                                   head.state == State::Failed});
            head.state = State::Unused;
            ++deliver_next;
        }
    }

    Config cfg_;
    std::vector<Slot> win;
    std::vector<PendingAck> pending; // circular, capacity = window
    size_t pending_head = 0;
    size_t pending_count = 0;
    int resend_count = 0;
    std::uint64_t next_new = 0;
    std::uint64_t deliver_next = 0;
    std::uint64_t retrans = 0;
};

} // namespace mac
} // namespace wilis

#endif // WILIS_MAC_ARQ_HH
