/**
 * @file
 * Pieces shared by the multi-cell SoA engine (multicell_soa.cc), the
 * single-cell engine (network_sim.cc) and the per-user test oracle
 * (tests/peruser_reference.cc) that must stay textually identical
 * between them: statistics recording, packet-trace plumbing and the
 * scalar interference fade. Internal to the sim module.
 *
 * Concurrency discipline for everything in this header: all state
 * (TraceCtx, per-user stats, the seq ring) is *barrier-phase
 * owned*, never locked -- between two LockstepTeam::barrier()
 * calls each structure is touched by exactly one worker (the
 * serving cell's owner, or worker 0 inside a mobility epoch with
 * the team parked at the barrier). That ownership is invisible to
 * lock-based static analysis, so it is enforced dynamically: the
 * CI TSan leg runs the threaded suites at 8 workers, where any
 * phase-ownership violation is a hard data-race report (the
 * barrier itself is pure release/acquire atomics, see
 * common/lockstep.hh, so TSan needs no suppressions).
 */

#ifndef WILIS_SIM_MULTICELL_DETAIL_HH
#define WILIS_SIM_MULTICELL_DETAIL_HH

#include <cmath>
#include <cstdint>
#include <vector>

#include "common/random.hh"
#include "mac/arq.hh"
#include "mac/packet_trace.hh"
#include "mac/traffic.hh"
#include "sim/mobility.hh"
#include "sim/network_sim.hh"

namespace wilis {
namespace sim {
namespace detail {

/**
 * Unit-mean exponential deviate (Rayleigh power fading) for one
 * interference link at one slot, keyed so any (user, cell, slot)
 * can be regenerated independently. Interferer identity changes
 * slot to slot, so i.i.d. per-slot fading is the right model --
 * temporal correlation only matters on the serving link, where the
 * rate controller tracks it. The batched twin lives in the
 * sinrAccumBatch kernel (common/kernels_impl.hh).
 */
inline double
interferenceFade(const CounterRng &stream, std::uint64_t counter)
{
    double u = 1.0 - stream.doubleAt(counter);
    if (u < 1e-300)
        u = 1e-300;
    return -std::log(u);
}

/**
 * Identity of the queued packet an in-flight ARQ sequence number
 * carries: the traffic queue's packet id, its arrival slot and its
 * class -- what Grant/Tx/Ack/Expire trace events are stamped with.
 */
struct PktRef {
    /** Per-user packet sequence number. */
    std::uint64_t pkt = 0;
    /** Arrival slot (end-to-end latency baseline). */
    std::uint64_t arrival = 0;
    /** Traffic class. */
    mac::TrafficClass cls = mac::TrafficClass::Data;
};

/**
 * One user's packet-trace recording context: a null trace disables
 * every hook (the untraced hot path pays a single branch), and the
 * ring maps in-window ARQ sequence numbers back to packet
 * identities (an ARQ seq S is delivered before seq S + window can
 * pop, so window-sized storage suffices).
 */
struct TraceCtx {
    /** Destination trace; null = recording disabled. */
    mac::PacketTrace *trace = nullptr;
    /** Recording shard (the owning cell or user lane). */
    int shard = 0;
    /** Serving cell stamped on events. */
    int cell = 0;
    /** Global user id stamped on events. */
    int user = 0;
    /** ARQ seq -> packet identity, indexed by seq % window. */
    std::vector<PktRef> ring;

    /** Attach to @p t and size the seq ring for @p window. */
    void
    bind(mac::PacketTrace *t, int shard_, int cell_, int user_,
         int window)
    {
        trace = t;
        shard = shard_;
        cell = cell_;
        user = user_;
        ring.assign(static_cast<size_t>(window), PktRef{});
    }

    /**
     * Re-point the recording lane and stamped cell after a
     * serving-cell handover, *preserving* the seq ring -- in-flight
     * ARQ sequence numbers keep their packet identities across the
     * migration (bind() would wipe them).
     */
    void
    rebind(int shard_, int cell_)
    {
        shard = shard_;
        cell = cell_;
    }

    /** The identity slot of ARQ sequence number @p seq. */
    PktRef &
    ref(std::uint64_t seq)
    {
        return ring[static_cast<size_t>(
            seq % static_cast<std::uint64_t>(ring.size()))];
    }
};

/** Bind ARQ seq @p seq to the popped packet @p p (trace only). */
inline void
notePop(TraceCtx &tc, std::uint64_t seq, const mac::Packet &p)
{
    if (!tc.trace)
        return;
    tc.ref(seq) = PktRef{p.seq, p.arrival, p.cls};
}

/** Record a scheduler grant of ARQ seq @p seq at slot @p t. */
inline void
recordGrant(TraceCtx &tc, std::uint64_t t, std::uint64_t seq,
            int attempts, std::int64_t first_wait)
{
    if (!tc.trace)
        return;
    const PktRef &r = tc.ref(seq);
    tc.trace->record(
        tc.shard,
        mac::PacketTrace::Entry{t, tc.cell, tc.user, r.cls, r.pkt,
                                mac::PacketEvent::Grant, attempts,
                                first_wait});
}

/** Record the transmission outcome of ARQ seq @p seq at @p t. */
inline void
recordTx(TraceCtx &tc, std::uint64_t t, std::uint64_t seq, bool ok,
         int rate)
{
    if (!tc.trace)
        return;
    const PktRef &r = tc.ref(seq);
    tc.trace->record(
        tc.shard,
        mac::PacketTrace::Entry{t, tc.cell, tc.user, r.cls, r.pkt,
                                mac::PacketEvent::Tx, ok ? 1 : 0,
                                rate});
}

/**
 * Record one ARQ delivery into the user's statistics, emitting the
 * trace's Ack/Expire event when @p tc has a bound trace (@p now is
 * the delivery slot); a traced in-order delivery also adds its
 * end-to-end latency, arrival to delivery, to e2eLatencyHist (the
 * packet's arrival slot is known only to the trace context).
 * @p post_ho routes a successful delivery's payload into the
 * post-first-handover goodput accumulator instead of the
 * pre-handover one (mobility runs only; the totals always land in
 * goodputBits).
 */
inline void
recordDelivery(UserStats &st, const mac::Arq::Delivery &d,
               size_t payload_bits, std::uint64_t now, TraceCtx &tc,
               bool post_ho = false)
{
    st.attemptsHist.add(static_cast<double>(d.attempts));
    if (tc.trace) {
        const PktRef &r = tc.ref(d.seq);
        const std::uint64_t e2e = now - r.arrival;
        tc.trace->record(
            tc.shard,
            mac::PacketTrace::Entry{
                now, tc.cell, tc.user, r.cls, r.pkt,
                d.dropped ? mac::PacketEvent::Expire
                          : mac::PacketEvent::Ack,
                d.attempts, static_cast<std::int64_t>(e2e)});
        if (!d.dropped)
            st.e2eLatencyHist.add(static_cast<double>(e2e));
    }
    if (d.dropped) {
        ++st.dropped;
        return;
    }
    ++st.delivered;
    st.goodputBits += payload_bits;
    if (post_ho)
        st.goodputBitsPostHo += payload_bits;
    else
        st.goodputBitsPreHo += payload_bits;
    st.latencySlots.add(static_cast<double>(d.latencySlots));
    st.latencyHist.add(static_cast<double>(d.latencySlots));
}

/**
 * Record one mobility session event (handover / join / leave) into
 * @p trace. Session events are stamped seq = 0, class = data; the
 * shard is the event's *entry* cell (new cell for a handover or
 * join, the departed cell for a leave), matching the trace-format
 * spec. @p flushed / @p aborted fill the Leave arguments and are
 * ignored by the other kinds. No-op when @p trace is null.
 */
inline void
recordMobilityEvent(mac::PacketTrace *trace, std::uint64_t t,
                    const MobilityRuntime::Event &ev, int flushed,
                    int aborted)
{
    if (!trace)
        return;
    mac::PacketTrace::Entry e{t,
                              ev.toCell,
                              ev.user,
                              mac::TrafficClass::Data,
                              0,
                              mac::PacketEvent::Handover,
                              ev.fromCell,
                              ev.pingPong ? 1 : 0};
    switch (ev.kind) {
      case MobilityRuntime::Event::Kind::Handover:
        break;
      case MobilityRuntime::Event::Kind::Join:
        e.event = mac::PacketEvent::Join;
        e.arg1 = 0;
        break;
      case MobilityRuntime::Event::Kind::Leave:
        e.event = mac::PacketEvent::Leave;
        e.cell = ev.fromCell;
        e.arg0 = flushed;
        e.arg1 = aborted;
        break;
    }
    trace->record(e.cell, e);
}

} // namespace detail
} // namespace sim
} // namespace wilis

#endif // WILIS_SIM_MULTICELL_DETAIL_HH
