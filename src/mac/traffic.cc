#include "mac/traffic.hh"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>

#include "mac/packet_trace.hh"

namespace wilis {
namespace mac {

TrafficSource::TrafficSource(const TrafficSpec &spec,
                             std::uint64_t stream_seed)
    : spec_(spec), rng_(stream_seed),
      transitions_(rng_.fork(0x70661Eull).fork(0xD11ull)),
      ctrlRng_(rng_.fork(0x70661Eull).fork(0xC7A1ull))
{
    // The upper bound keeps Knuth's product sampler in its working
    // range (exp(-load) underflows near 708 and the loop would
    // return underflow counts, not Poisson draws); dozens of frame
    // arrivals per user per slot is already far beyond any cell's
    // service rate.
    wilis_assert(spec_.load >= 0.0 && spec_.load <= 64.0,
                 "traffic load %g outside [0, 64] frames/slot",
                 spec_.load);
    wilis_assert(spec_.controlRate >= 0.0 &&
                     spec_.controlRate <= 64.0,
                 "control rate %g outside [0, 64] frames/slot",
                 spec_.controlRate);
    wilis_assert(spec_.queueLimit >= 1, "queue limit %d < 1",
                 spec_.queueLimit);
    wilis_assert(spec_.onSlots >= 1.0 && spec_.offSlots >= 1.0,
                 "ON/OFF dwell means (%g, %g) must be >= 1 slot",
                 spec_.onSlots, spec_.offSlots);
    static_assert(offsetof(TrafficSource, data_) + 2 * sizeof(int) <= 128,
                  "the ring head/depth words must sit in two cache lines");
    expLoad_ = std::exp(-spec_.load);
    expCtrl_ = std::exp(-spec_.controlRate);
    // Start the ON/OFF chain in its stationary distribution so a
    // cell's initial load is representative, not synchronized.
    if (spec_.kind == TrafficKind::OnOff)
        on_ = rng_.doubleAt(0x0FF0Full) <
              spec_.onSlots / (spec_.onSlots + spec_.offSlots);
}

void
TrafficSource::Ring::pushBack(const Packet &p, int limit)
{
    const int cap = static_cast<int>(slots.size());
    if (depth == cap) {
        // Each ring holds at most limit packets because the limit
        // bounds the *total* depth across both classes.
        const int grown_cap = std::min(limit, std::max(kMinRing, 2 * cap));
        std::vector<Packet> grown(static_cast<size_t>(grown_cap));
        for (int i = 0; i < depth; ++i)
            grown[static_cast<size_t>(i)] =
                slots[static_cast<size_t>((head + i) % cap)];
        slots.swap(grown);
        head = 0;
    }
    const int tail = (head + depth) % static_cast<int>(slots.size());
    slots[static_cast<size_t>(tail)] = p;
    ++depth;
}

int
TrafficSource::poissonFrom(const CounterRng &slot_stream,
                           double exp_neg_mean)
{
    // Knuth's product-of-uniforms sampler on the slot's own
    // sub-stream; the draw count varies per slot, which is why each
    // slot forks its own counter space.
    double prod = 1.0;
    int k = 0;
    do {
        prod *= slot_stream.doubleAt(static_cast<std::uint64_t>(k));
        ++k;
    } while (prod > exp_neg_mean);
    return k - 1;
}

void
TrafficSource::traceDrop(const Packet &p, std::uint64_t now,
                         std::int64_t reason)
{
    if (!trace_)
        return;
    trace_->record(
        traceShard_,
        PacketTrace::Entry{now, traceCell_, traceUser_, p.cls,
                           p.seq, PacketEvent::QueueDrop, reason,
                           static_cast<std::int64_t>(now -
                                                     p.arrival)});
}

void
TrafficSource::evictOldest(std::uint64_t now)
{
    // Global-oldest across both rings: sequence numbers are
    // assigned in arrival order, so the smaller head seq is the
    // older packet.
    Ring &r = ctrl_.depth == 0 ? data_
              : data_.depth == 0
                  ? ctrl_
                  : (ctrl_.front().seq < data_.front().seq ? ctrl_
                                                           : data_);
    const Packet victim = r.popFront();
    ++drops_;
    traceDrop(victim, now, 1);
}

int
TrafficSource::flush(std::uint64_t now)
{
    int flushed = 0;
    for (Ring *r : {&ctrl_, &data_}) {
        while (r->depth > 0) {
            const Packet p = r->popFront();
            ++drops_;
            ++flushed;
            traceDrop(p, now, 2);
        }
    }
    return flushed;
}

std::uint64_t
TrafficSource::nextSeq()
{
    wilis_fatal_if(trace_ && pktSeq_ > UINT32_MAX,
                   "packet trace: user %d's packet seq would pass "
                   "2^32-1, the trace's 32-bit seq column; lower "
                   "traffic_load/control_rate or slots",
                   traceUser_);
    return pktSeq_++;
}

void
TrafficSource::push(TrafficClass cls, std::uint64_t arrival_slot)
{
    ++arrivals_;
    const Packet p{arrival_slot, nextSeq(), cls};
    if (ctrl_.depth + data_.depth >= spec_.queueLimit) {
        if (spec_.qdisc == QdiscKind::DropHead) {
            evictOldest(arrival_slot);
        } else {
            // fifo/priority drop the arrival (tail drop).
            ++drops_;
            traceDrop(p, arrival_slot, 0);
            return;
        }
    }
    (cls == TrafficClass::Control ? ctrl_ : data_)
        .pushBack(p, spec_.queueLimit);
    if (trace_)
        trace_->record(
            traceShard_,
            PacketTrace::Entry{arrival_slot, traceCell_,
                               traceUser_, cls, p.seq,
                               PacketEvent::Enqueue,
                               ctrl_.depth + data_.depth, 0});
}

void
TrafficSource::tick(std::uint64_t t)
{
    // Control arrivals first, so a same-slot control packet sorts
    // ahead of the slot's data arrivals in sequence order.
    if (spec_.controlRate > 0.0) {
        const int n = poissonFrom(ctrlRng_.fork(t), expCtrl_);
        for (int i = 0; i < n; ++i)
            push(TrafficClass::Control, t);
    }
    switch (spec_.kind) {
      case TrafficKind::FullBuffer:
        return;
      case TrafficKind::Poisson: {
        const int n = poissonFrom(rng_.fork(t), expLoad_);
        for (int i = 0; i < n; ++i)
            push(TrafficClass::Data, t);
        return;
      }
      case TrafficKind::OnOff:
        break;
    }
    // Geometric dwell times: one keyed transition draw per slot,
    // evaluated before this slot's arrivals so a freshly started
    // burst delivers immediately.
    const double u = transitions_.doubleAt(t);
    if (on_) {
        if (u < 1.0 / spec_.onSlots)
            on_ = false;
    } else {
        if (u < 1.0 / spec_.offSlots)
            on_ = true;
    }
    if (on_) {
        const int n = poissonFrom(rng_.fork(t), expLoad_);
        for (int i = 0; i < n; ++i)
            push(TrafficClass::Data, t);
    }
}

namespace {

void
saveRing(SnapshotWriter &w, int depth, int head,
         const std::vector<Packet> &slots)
{
    w.u64(static_cast<std::uint64_t>(depth));
    for (int i = 0; i < depth; ++i) {
        const Packet &p =
            slots[static_cast<size_t>((head + i) %
                                      static_cast<int>(
                                          slots.size()))];
        w.u64(p.arrival);
        w.u64(p.seq);
        w.u8(static_cast<std::uint8_t>(p.cls));
    }
}

/**
 * Restore a ring saved by saveRing() into a ring sized to the
 * restored depth; @p limit is the depth its class can reach (the
 * queue limit, or 0 for a class the spec never enqueues).
 */
void
loadRing(SnapshotReader &r, int &depth, int &head,
         std::vector<Packet> &slots, int limit, bool traced)
{
    const std::uint64_t n = r.u64();
    if (n > static_cast<std::uint64_t>(limit))
        r.fail(strprintf("traffic queue depth %llu over its %d-packet limit",
                         static_cast<unsigned long long>(n), limit));
    head = 0;
    depth = static_cast<int>(n);
    slots.assign(static_cast<size_t>(n), Packet{});
    for (int i = 0; i < depth; ++i) {
        Packet &p = slots[static_cast<size_t>(i)];
        p.arrival = r.u64();
        p.seq = r.u64();
        p.cls = static_cast<TrafficClass>(
            r.u8Below(kTrafficClassNames.values, "packet class"));
        // A traced packet's seq, age and wait go into 32-bit trace
        // columns.
        if (traced && (p.seq > UINT32_MAX ||
                       p.arrival >= PacketTrace::kMaxSlots))
            r.fail(strprintf("traced packet seq %llu, arrival %llu past "
                             "the packet trace's 32-bit columns",
                             static_cast<unsigned long long>(p.seq),
                             static_cast<unsigned long long>(p.arrival)));
    }
}

} // namespace

void
TrafficSource::saveState(SnapshotWriter &w) const
{
    w.marker(0x46464152); // "RAFF"
    w.u8(on_ ? 1 : 0);
    saveRing(w, ctrl_.depth, ctrl_.head, ctrl_.slots);
    saveRing(w, data_.depth, data_.head, data_.slots);
    w.u64(arrivals_);
    w.u64(drops_);
    w.u64(pktSeq_);
}

void
TrafficSource::loadState(SnapshotReader &r)
{
    r.marker(0x46464152);
    on_ = r.u8Below(2, "traffic on/off flag") != 0;
    const int limit = spec_.queueLimit;
    loadRing(r, ctrl_.depth, ctrl_.head, ctrl_.slots,
             spec_.controlRate > 0.0 ? limit : 0, trace_ != nullptr);
    loadRing(r, data_.depth, data_.head, data_.slots,
             spec_.kind != TrafficKind::FullBuffer ? limit : 0,
             trace_ != nullptr);
    arrivals_ = r.u64();
    drops_ = r.u64();
    pktSeq_ = r.u64();
}

Packet
TrafficSource::pop(std::uint64_t now)
{
    if (ctrl_.depth > 0) {
        // Strict priority always serves control first; fifo and
        // drop_head serve the globally oldest head.
        if (spec_.qdisc == QdiscKind::StrictPriority ||
            data_.depth == 0 ||
            ctrl_.front().seq < data_.front().seq)
            return ctrl_.popFront();
    }
    if (spec_.kind == TrafficKind::FullBuffer)
        return Packet{now, nextSeq(), TrafficClass::Data};
    wilis_assert(data_.depth > 0,
                 "pop() from an empty traffic queue");
    return data_.popFront();
}

} // namespace mac
} // namespace wilis
