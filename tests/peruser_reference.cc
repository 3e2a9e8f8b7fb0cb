#include "peruser_reference.hh"
#include "pf_pick_reference.hh"

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "channel/awgn.hh"
#include "channel/fading.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "mac/arq.hh"
#include "mac/scheduler.hh"
#include "mac/softrate.hh"
#include "mac/traffic.hh"
#include "sim/link_fidelity.hh"
#include "sim/mobility.hh"
#include "sim/multicell_detail.hh"
#include "sim/worker_phy.hh"
#include "softphy/softphy.hh"

namespace wilis {
namespace sim {

namespace {

using detail::interferenceFade;
using detail::notePop;
using detail::recordDelivery;
using detail::recordGrant;
using detail::recordMobilityEvent;
using detail::recordTx;

/** One user's per-run state. */
struct McUser {
    McUser(const NetworkSpec &spec, const Topology &topo, int id_,
           const softphy::CalibrationTable *table)
        : id(id_), servGainLin(topo.linkGainLin(id_, topo.servingCell(id_))),
          // Chained forks: one purpose family, then the user id,
          // so no user's stream can alias another family's.
          seeds(CounterRng(spec.seed)
                    .fork(0xCE77ull)
                    .fork(static_cast<std::uint64_t>(id_))),
          fader(spec.dopplerHz, seeds.at(0)),
          traffic(spec.traffic, seeds.at(2)),
          interfStream(seeds.at(4)), payloadSeed(seeds.at(1)),
          awgnSeed(seeds.at(5))
    {
        mac::SoftRateMac::Config src;
        src.pberLo = spec.pberLo;
        src.pberHi = spec.pberHi;
        src.initialRate = spec.link.rate;
        softrate = mac::SoftRateMac(src);

        mac::Arq::Config ac;
        ac.mode = spec.arqMode;
        ac.window = spec.arqWindow;
        ac.maxAttempts = spec.arqMaxAttempts;
        ac.ackDelaySlots = spec.ackDelaySlots;
        arq = std::make_unique<mac::Arq>(ac);

        if (table)
            analytic =
                std::make_unique<AnalyticLink>(table, seeds.at(3));

        stats.user = id;
        stats.servingCell = topo.servingCell(id_);
        stats.meanSnrDb = topo.servingSnrDb(id_);
    }

    /** Serving-link |h|^2 at slot @p t (memoized per slot). */
    double
    fadingPower(std::uint64_t t, double frame_interval_us)
    {
        if (h2_slot != t || !h2_valid) {
            h2 = std::norm(fader.gainAt(static_cast<double>(t) *
                                        frame_interval_us));
            h2_slot = t;
            h2_valid = true;
        }
        return h2;
    }

    int id;
    double servGainLin;
    CounterRng seeds;
    channel::JakesFader fader;
    mac::TrafficSource traffic;
    mac::SoftRateMac softrate;
    std::unique_ptr<mac::Arq> arq;
    std::unique_ptr<AnalyticLink> analytic;
    std::unique_ptr<channel::AwgnChannel> awgn; // full rung, lazy
    CounterRng interfStream;
    std::uint64_t payloadSeed;
    std::uint64_t awgnSeed;
    UserStats stats;
    detail::TraceCtx tctx;

    double h2 = 0.0;
    std::uint64_t h2_slot = 0;
    bool h2_valid = false;
};

/** One cell's scheduler state plus its slot decision. */
struct McCell {
    std::vector<int> users; // global ids, increasing
    std::unique_ptr<mac::CellScheduler> sched;
    std::vector<std::uint8_t> eligible;
    std::vector<std::uint8_t> urgent; // queued control traffic
    std::vector<double> instRate;
    std::vector<mac::Arq::Delivery> deliveries;

    // Phase-1 outputs consumed by every cell's phase 2.
    int grantedUser = -1; // global id, -1 = idle slot
    std::uint64_t grantedSeq = 0;

    void
    resize()
    {
        eligible.resize(users.size());
        urgent.assign(users.size(), 0);
        instRate.assign(users.size(), 0.0);
    }
};

} // namespace

NetworkResult
runPerUserReference(const NetworkSim &sim, std::uint64_t slots)
{
    const NetworkSpec &spec = sim.spec();
    wilis_assert(sim.topology(), "per-user reference needs a grid");
    wilis_assert(!spec.checkpoint.enabled() &&
                     spec.checkpoint.everySlots == 0 &&
                     !spec.checkpoint.resume,
                 "the per-user reference does not checkpoint; clear "
                 "the spec's checkpoint keys");
    const Topology &topo = *sim.topology();
    const softphy::BerEstimator estimator =
        softphy::analyticRateEstimator(spec.link.rx);
    const int cells = topo.numCells();
    const int num_users = topo.numUsers();
    const size_t payload_bits = spec.link.payloadBits;
    const softphy::CalibrationTable *table =
        spec.fidelity.mode != FidelityMode::Full ? sim.calibration()
                                                 : nullptr;

    NetworkResult res;
    res.spec = spec;
    res.slots = slots;
    res.cells = cells;

    std::vector<McUser> users;
    users.reserve(static_cast<size_t>(num_users));
    for (int u = 0; u < num_users; ++u)
        users.emplace_back(spec, topo, u, table);

    // One trace shard per cell, as in the engine under test.
    std::shared_ptr<mac::PacketTrace> trace;
    if (spec.trace) {
        trace = std::make_shared<mac::PacketTrace>(cells);
        for (McUser &u : users) {
            const int cell = topo.servingCell(u.id);
            u.tctx.bind(trace.get(), cell, cell, u.id,
                        u.arq->windowSize());
            u.traffic.bindTrace(trace.get(), cell, cell, u.id);
        }
    }

    // Mobility / handover / churn: the decision engine the SoA
    // engine drives, so both apply identical epochs. Null for
    // static runs.
    std::unique_ptr<MobilityRuntime> mob;
    if (spec.mobility.enabled())
        mob = std::make_unique<MobilityRuntime>(
            spec.mobility, topo, spec.seed, spec.frameIntervalUs);
    // Post-first-handover flag routing delivered payload into the
    // before/after-handover goodput split.
    auto post_ho = [&](int uid) {
        return mob && mob->handovers(uid) > 0;
    };

    std::vector<McCell> cell_state(static_cast<size_t>(cells));
    for (int c = 0; c < cells; ++c) {
        McCell &cs = cell_state[static_cast<size_t>(c)];
        cs.users = topo.cellUsers(c);
        cs.sched = std::make_unique<mac::CellScheduler>(
            spec.scheduler, static_cast<int>(cs.users.size()));
        cs.resize();
        cs.deliveries.reserve(
            static_cast<size_t>(spec.arqWindow) + 1);
    }
    // Fixed-contention airtime: a cell whose last grant saw k > 1
    // contenders is busy (no grants) until this slot.
    std::vector<std::uint64_t> busy_until(
        static_cast<size_t>(cells), 0);
    const bool class_aware =
        spec.traffic.qdisc == mac::QdiscKind::StrictPriority;
    const bool fixed_contention =
        spec.scheduler.contention == mac::ContentionMode::Fixed;
    const bool pf =
        spec.scheduler.kind == mac::SchedulerKind::ProportionalFair;

    // The cross-cell coupling: which cells transmit this slot.
    // Written by each cell's phase 1, read by every cell's phase 2.
    std::vector<std::uint8_t> active(static_cast<size_t>(cells), 0);

    WorkerPhy phy;

    // ---- phase 1: deliver ACKs, draw traffic, schedule ----------
    auto phase_schedule = [&](int ci, std::uint64_t t) {
        McCell &cs = cell_state[static_cast<size_t>(ci)];
        // Under fixed contention the medium may still be occupied
        // by the previous grant's contention charge: per-user
        // processes advance, but no grant is issued.
        const bool busy = t < busy_until[static_cast<size_t>(ci)];
        for (size_t i = 0; i < cs.users.size(); ++i) {
            McUser &u = users[static_cast<size_t>(cs.users[i])];
            if (!u.arq->quiescentAt(t)) {
                cs.deliveries.clear();
                u.arq->tick(t, cs.deliveries);
                for (const auto &d : cs.deliveries)
                    recordDelivery(u.stats, d, payload_bits, t,
                                   u.tctx, post_ho(u.id));
            }
            u.traffic.tick(t);
            const bool can_send =
                u.arq->hasResend() ||
                (u.traffic.backlogged() && u.arq->windowHasRoom());
            cs.eligible[i] = can_send ? 1 : 0;
            if (class_aware)
                cs.urgent[i] =
                    u.traffic.controlBacklogged() ? 1 : 0;
            // Proportional fair ranks by the noise-limited
            // instantaneous rate (interference is unknown until
            // every cell has scheduled); only eligible users pay
            // for the fading evaluation.
            if (can_send && !busy && pf) {
                const double h2 =
                    u.fadingPower(t, spec.frameIntervalUs);
                cs.instRate[i] =
                    std::log2(1.0 + u.servGainLin * h2);
            }
        }

        if (busy) {
            // The contention charge consumes the slot: everyone
            // with traffic stalls, the scheduler's clock advances.
            cs.grantedUser = -1;
            active[static_cast<size_t>(ci)] = 0;
            cs.sched->update(-1, 0.0);
            for (size_t i = 0; i < cs.users.size(); ++i) {
                if (cs.eligible[i])
                    ++users[static_cast<size_t>(cs.users[i])]
                          .stats.stalledSlots;
            }
            return;
        }

        const std::vector<std::uint8_t> *urgent =
            class_aware ? &cs.urgent : nullptr;
        const int pick =
            pf ? mac::pfPickReference(*cs.sched, cs.eligible,
                                      cs.instRate, urgent)
               : cs.sched->pick(cs.eligible, {}, {}, urgent);
        if (pick < 0) {
            cs.grantedUser = -1;
            active[static_cast<size_t>(ci)] = 0;
            // Idle slots still close the scheduler's slot.
            cs.sched->update(-1, 0.0);
            return;
        }
        McUser &u = users[static_cast<size_t>(cs.users[
            static_cast<size_t>(pick)])];
        const bool allow_new =
            u.traffic.backlogged() && u.arq->windowHasRoom();
        const std::uint64_t prev_next = u.arq->nextSeq();
        std::uint64_t seq = 0;
        const bool sending = u.arq->nextToSend(t, seq, allow_new);
        wilis_assert(sending, "scheduler granted an idle user");
        std::int64_t first_wait = 0;
        if (u.arq->nextSeq() != prev_next) {
            // A never-transmitted frame leaves the traffic queue.
            const mac::Packet p = u.traffic.pop(t);
            u.stats.queueWaitSlots.add(
                static_cast<double>(t - p.arrival));
            u.stats.queueWaitHist.add(
                static_cast<double>(t - p.arrival));
            notePop(u.tctx, seq, p);
            first_wait = static_cast<std::int64_t>(t - p.arrival);
        }
        recordGrant(u.tctx, t, seq, u.arq->attemptsOf(seq),
                    first_wait);
        cs.grantedUser = u.id;
        cs.grantedSeq = seq;
        active[static_cast<size_t>(ci)] = 1;
        cs.sched->update(pick, static_cast<double>(payload_bits));
        // Contention accounting: eligible but passed over.
        int contenders = 0;
        for (size_t i = 0; i < cs.users.size(); ++i) {
            if (!cs.eligible[i])
                continue;
            ++contenders;
            if (static_cast<int>(i) != pick)
                ++users[static_cast<size_t>(cs.users[i])]
                      .stats.stalledSlots;
        }
        if (fixed_contention && contenders > 1)
            busy_until[static_cast<size_t>(ci)] =
                t + static_cast<std::uint64_t>(contenders);
    };

    // ---- phase 2: SINR over the active set, transmit ------------
    auto phase_transmit = [&](int ci, std::uint64_t t) {
        McCell &cs = cell_state[static_cast<size_t>(ci)];
        if (cs.grantedUser < 0)
            return;
        McUser &u = users[static_cast<size_t>(cs.grantedUser)];

        const double h2 = u.fadingPower(t, spec.frameIntervalUs);
        const double sig = u.servGainLin * h2;
        // Under mobility the live matrix row replaces the static
        // topology gains (identical at epoch 0 by construction).
        const double *grow = mob ? mob->gainRow(u.id) : nullptr;
        double interference = 0.0;
        for (int c2 = 0; c2 < cells; ++c2) {
            if (c2 == ci || !active[static_cast<size_t>(c2)])
                continue;
            interference +=
                (grow ? grow[c2] : topo.linkGainLin(u.id, c2)) *
                interferenceFade(
                    u.interfStream,
                    t * static_cast<std::uint64_t>(cells) +
                        static_cast<std::uint64_t>(c2));
        }
        const double sinr_lin = sig / (1.0 + interference);
        const double sinr_db = sinr_lin > 0.0
                                   ? 10.0 * std::log10(sinr_lin)
                                   : kZeroSinrDb;

        const phy::RateIndex rate = u.softrate.currentRate();
        LinkFrameResult fr;
        if (spec.fidelity.fullPhySlot(t)) {
            // The bit-exact rung, conditioned on this slot's SINR
            // (interference enters as Gaussian noise, the same
            // conditioning the calibration table uses).
            if (!u.awgn)
                u.awgn = std::make_unique<channel::AwgnChannel>(
                    channel::AwgnParams{.snrDb = sinr_db,
                                        .seed = u.awgnSeed});
            else
                u.awgn->setSnrDb(sinr_db);
            phy.arena.reset();
            BitSpan payload = phy.arena.alloc<Bit>(payload_bits);
            fillDeterministicBits(payload, u.payloadSeed,
                                  cs.grantedSeq);
            FrameContext ctx(phy.arena);
            SampleSpan samples =
                phy.txAt(rate, spec.link.rx).modulate(payload, ctx);
            u.awgn->apply(samples, t);
            phy::RxFrame rx_frame =
                phy.rxAt(rate, spec.link.rx)
                    .demodulate(samples, payload_bits,
                                u.awgn.get(), t, ctx);
            fr.ok = rx_frame.bitErrors(payload) == 0;
            fr.pber = estimator.packetBerForRate(rate,
                                                 rx_frame.soft);
            fr.fullPhy = true;
        } else {
            fr = u.analytic->drawAt(rate, t, sinr_db);
        }

        ++u.stats.framesSent;
        u.stats.framesOk += fr.ok ? 1 : 0;
        if (fr.fullPhy)
            ++u.stats.fullPhyFrames;
        else
            ++u.stats.analyticFrames;
        u.stats.rateHist.add(static_cast<double>(rate));
        u.stats.sinrDb.add(sinr_db);
        recordTx(u.tctx, t, cs.grantedSeq, fr.ok,
                 static_cast<int>(rate));
        u.softrate.onFeedback(fr.pber);
        u.arq->onSendResult(cs.grantedSeq, fr.ok);
    };

    // ---- mobility epochs: apply membership events ---------------
    auto member_pos = [](const McCell &cs, int uid) {
        return static_cast<int>(
            std::lower_bound(cs.users.begin(), cs.users.end(), uid) -
            cs.users.begin());
    };
    auto remove_member = [&](int c, int uid, double *pf_carry) {
        McCell &cs = cell_state[static_cast<size_t>(c)];
        const int pos = member_pos(cs, uid);
        if (pf_carry)
            *pf_carry = cs.sched->averageRate(pos);
        cs.sched->removeUser(pos);
        cs.users.erase(cs.users.begin() + pos);
        cs.resize();
    };
    auto insert_member = [&](int c, int uid, double pf_carry) {
        McCell &cs = cell_state[static_cast<size_t>(c)];
        const int pos = member_pos(cs, uid);
        cs.sched->insertUser(pos, pf_carry);
        cs.users.insert(cs.users.begin() + pos, uid);
        cs.resize();
    };
    std::vector<MobilityRuntime::Event> mob_events;
    std::vector<mac::Arq::Delivery> mob_deliv;
    auto apply_mobility = [&](std::uint64_t t) {
        mob_events.clear();
        mob->epoch(t, mob_events);
        for (const MobilityRuntime::Event &ev : mob_events) {
            McUser &u = users[static_cast<size_t>(ev.user)];
            int flushed = 0;
            int aborted = 0;
            switch (ev.kind) {
              case MobilityRuntime::Event::Kind::Leave: {
                // Teardown records into the pre-departure shard:
                // queued packets flush, in-flight ARQ frames abort.
                remove_member(ev.fromCell, ev.user, nullptr);
                flushed = u.traffic.flush(t);
                mob_deliv.clear();
                u.arq->abortAll(t, mob_deliv);
                for (const auto &d : mob_deliv) {
                    recordDelivery(u.stats, d, payload_bits, t,
                                   u.tctx, post_ho(u.id));
                    if (d.dropped)
                        ++aborted;
                }
                break;
              }
              case MobilityRuntime::Event::Kind::Join:
              case MobilityRuntime::Event::Kind::Handover: {
                // A handover migrates queue, ARQ window and rate
                // state untouched and carries the PF average, so
                // the target cell does not treat the user as
                // starved; a join starts the average at zero.
                double carry = 0.0;
                if (ev.kind == MobilityRuntime::Event::Kind::Handover)
                    remove_member(ev.fromCell, ev.user,
                                  pf ? &carry : nullptr);
                insert_member(ev.toCell, ev.user, carry);
                u.tctx.rebind(ev.toCell, ev.toCell);
                if (trace)
                    u.traffic.bindTrace(trace.get(), ev.toCell,
                                        ev.toCell, u.id);
                break;
              }
            }
            recordMobilityEvent(trace.get(), t, ev, flushed,
                                aborted);
        }
        // The epoch rewrote the live gain rows: refresh every
        // user's serving-link gain.
        for (McUser &uu : users)
            uu.servGainLin = mob->servingGainLin(uu.id);
    };

    const std::uint64_t epoch_slots = mob ? mob->epochSlots() : 1;
    for (std::uint64_t t = 0; t < slots; ++t) {
        if (mob && t % epoch_slots == 0)
            apply_mobility(t);
        for (int c = 0; c < cells; ++c)
            phase_schedule(c, t);
        for (int c = 0; c < cells; ++c)
            phase_transmit(c, t);
    }

    // Drain acknowledgements still in flight at the horizon so
    // their deliveries are counted (no new transmissions).
    std::vector<mac::Arq::Delivery> tail;
    for (McUser &u : users) {
        for (std::uint64_t t = slots;
             t <= slots + spec.ackDelaySlots; ++t) {
            tail.clear();
            u.arq->tick(t, tail);
            for (const auto &d : tail)
                recordDelivery(u.stats, d, payload_bits, t, u.tctx,
                               post_ho(u.id));
        }
        u.stats.retransmissions = u.arq->retransmissions();
        u.stats.arrivals = u.traffic.arrivals();
        u.stats.queueDrops = u.traffic.drops();

        // Mobility outcome statistics (the final serving cell
        // replaces the drop-time association; the first-handover
        // slot splits the run into before/after windows).
        if (mob) {
            u.stats.servingCell = mob->servingCell(u.id);
            u.stats.handovers = mob->handovers(u.id);
            u.stats.pingPongs = mob->pingPongs(u.id);
            u.stats.joins = mob->joins(u.id);
            u.stats.leaves = mob->leaves(u.id);
            u.stats.preHoSlots =
                std::min(mob->firstHandoverSlot(u.id), slots);
        } else {
            u.stats.preHoSlots = slots;
        }
        u.stats.postHoSlots = slots - u.stats.preHoSlots;
    }

    // End-to-end latency (arrival -> in-order delivery) is derived
    // from the finalized trace's Ack events, replacing what
    // recordDelivery() added at each delivery: the engines keep
    // only the latter, so the oracle tests cross-check the two.
    if (trace) {
        trace->finalize();
        for (McUser &u : users)
            u.stats.e2eLatencyHist = UserStats().e2eLatencyHist;
        for (const auto &e : trace->entries()) {
            if (e.event == mac::PacketEvent::Ack)
                users[static_cast<size_t>(e.user)]
                    .stats.e2eLatencyHist.add(
                        static_cast<double>(e.arg1));
        }
        res.trace = trace;
    }

    res.users.reserve(static_cast<size_t>(num_users));
    for (const McUser &u : users)
        res.users.push_back(u.stats);

    // Aggregate in user order, as the engine does.
    res.aggregate = UserStats();
    res.aggregate.user = -1;
    for (const UserStats &u : res.users)
        res.aggregate.merge(u);
    return res;
}

} // namespace sim
} // namespace wilis
