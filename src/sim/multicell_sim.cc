#include "sim/multicell_sim.hh"

#include <algorithm>
#include <cmath>
#include <thread>
#include <vector>

#include "channel/awgn.hh"
#include "channel/fading.hh"
#include "common/lockstep.hh"
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

namespace wilis {
namespace sim {

namespace {

using detail::interferenceFade;
using detail::notePop;
using detail::recordDelivery;
using detail::recordGrant;
using detail::recordMobilityEvent;
using detail::recordTx;

/** One user's per-run state, owned by its serving cell. */
struct McUser {
    McUser(const NetworkSpec &spec, const Topology &topo, int id_,
           const softphy::CalibrationTable *table)
        : id(id_), cell(topo.servingCell(id_)),
          meanSnrDb(topo.servingSnrDb(id_)),
          servGainLin(topo.linkGainLin(id_, cell)),
          // Chained forks: one purpose family, then the user id,
          // so no user's stream can alias another family's
          // (XOR-ing ids into the constant would collide at
          // user counts above the constants' XOR distance).
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
        stats.servingCell = cell;
        stats.meanSnrDb = meanSnrDb;
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
    int cell;
    double meanSnrDb;
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
};

/**
 * Adapter mapping this engine's per-user object layout onto the
 * canonical checkpoint byte order (detail::saveMcCheckpoint() /
 * detail::loadMcCheckpoint() in multicell_detail.hh). sync()
 * derives the user -> member-cell map; call it before a save.
 */
struct PuCheckpoint {
    std::vector<McUser> *users;
    std::vector<McCell> *cells;
    std::vector<std::uint64_t> *busy;
    const mac::CellScheduler::Config *schedCfg;
    MobilityRuntime *mobp;
    mac::PacketTrace *tracep;
    std::vector<int> cellOf; // user id -> member cell, -1 = none

    void
    sync()
    {
        cellOf.assign(users->size(), -1);
        for (size_t c = 0; c < cells->size(); ++c)
            for (int id : (*cells)[c].users)
                cellOf[static_cast<size_t>(id)] =
                    static_cast<int>(c);
    }

    McUser &
    at(int id)
    {
        return (*users)[static_cast<size_t>(id)];
    }

    int numUsers() const { return static_cast<int>(users->size()); }
    int numCells() const { return static_cast<int>(cells->size()); }
    MobilityRuntime *mob() const { return mobp; }
    mac::PacketTrace *trace() const { return tracep; }
    int memberCellOf(int id) { return cellOf[static_cast<size_t>(id)]; }
    double servGainOf(int id) { return at(id).servGainLin; }
    mac::SoftRateMac &softrateOf(int id) { return at(id).softrate; }
    mac::Arq &arqOf(int id) { return *at(id).arq; }
    mac::TrafficSource &trafficOf(int id) { return at(id).traffic; }
    detail::TraceCtx &tctxOf(int id) { return at(id).tctx; }
    UserStats &statsOf(int id) { return at(id).stats; }

    std::vector<int>
    memberIdsOf(int c)
    {
        return (*cells)[static_cast<size_t>(c)].users;
    }

    mac::CellScheduler &
    schedOf(int c)
    {
        return *(*cells)[static_cast<size_t>(c)].sched;
    }

    std::uint64_t
    busyUntilOf(int c)
    {
        return (*busy)[static_cast<size_t>(c)];
    }

    void
    setMemberCell(int id, int c)
    {
        if (cellOf.size() != users->size())
            cellOf.assign(users->size(), -1);
        cellOf[static_cast<size_t>(id)] = c;
        if (c >= 0)
            at(id).cell = c;
    }

    void setServGain(int id, double g) { at(id).servGainLin = g; }

    void
    resetCell(int c, const std::vector<int> &ids)
    {
        McCell &cs = (*cells)[static_cast<size_t>(c)];
        cs.users = ids;
        cs.sched = std::make_unique<mac::CellScheduler>(
            *schedCfg, static_cast<int>(ids.size()));
        cs.eligible.resize(cs.users.size());
        cs.urgent.assign(cs.users.size(), 0);
        cs.instRate.assign(cs.users.size(), 0.0);
    }

    void
    setBusyUntil(int c, std::uint64_t v)
    {
        (*busy)[static_cast<size_t>(c)] = v;
    }
};

} // namespace

NetworkResult
runMulticellPerUser(
    const NetworkSpec &spec, const Topology &topo,
    const softphy::BerEstimator &estimator,
    std::shared_ptr<const softphy::CalibrationTable> calib,
    std::uint64_t slots, int threads)
{
    const int cells = topo.numCells();
    const int num_users = topo.numUsers();
    const size_t payload_bits = spec.link.payloadBits;
    const softphy::CalibrationTable *table =
        spec.fidelity.mode != FidelityMode::Full ? calib.get()
                                                 : nullptr;

    NetworkResult res;
    res.spec = spec;
    res.slots = slots;
    res.cells = cells;

    // Per-user and per-cell state, all owned by the serving cell's
    // worker once the slot loop starts.
    std::vector<McUser> users;
    users.reserve(static_cast<size_t>(num_users));
    for (int u = 0; u < num_users; ++u)
        users.emplace_back(spec, topo, u, table);

    // The packet trace records per-cell (one shard per cell, each
    // written only by the cell's owning worker).
    std::shared_ptr<mac::PacketTrace> trace;
    if (spec.trace) {
        trace = std::make_shared<mac::PacketTrace>(cells);
        for (McUser &u : users) {
            u.tctx.bind(trace.get(), u.cell, u.cell, u.id,
                        u.arq->windowSize());
            u.traffic.bindTrace(trace.get(), u.cell, u.cell, u.id);
        }
    }

    // Mobility / handover / churn: one shared decision engine,
    // driven single-threaded between barriers, so the per-user and
    // SoA engines see identical epochs by construction. Null for
    // static runs, which therefore stay bit-identical to the
    // pre-mobility engine.
    std::unique_ptr<MobilityRuntime> mob;
    if (spec.mobility.enabled())
        mob = std::make_unique<MobilityRuntime>(
            spec.mobility, topo, spec.seed, spec.frameIntervalUs);
    // Post-first-handover flag routing delivered payload into the
    // before/after-handover goodput split.
    auto post_ho = [&](int uid) {
        return mob &&
               mob->handovers(uid) > 0;
    };

    std::vector<McCell> cell_state(static_cast<size_t>(cells));
    for (int c = 0; c < cells; ++c) {
        McCell &cs = cell_state[static_cast<size_t>(c)];
        cs.users = topo.cellUsers(c);
        cs.sched = std::make_unique<mac::CellScheduler>(
            spec.scheduler, static_cast<int>(cs.users.size()));
        cs.eligible.resize(cs.users.size());
        cs.urgent.assign(cs.users.size(), 0);
        cs.instRate.assign(cs.users.size(), 0.0);
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

    // The cross-cell coupling: which cells transmit this slot.
    // Written by each cell's phase 1 (own index only), read by
    // every cell's phase 2 after the barrier.
    std::vector<std::uint8_t> active(static_cast<size_t>(cells), 0);

    WorkerPhyPool phy_pool;

    // ---- phase 1: deliver ACKs, draw traffic, schedule ----------
    auto phase_schedule = [&](std::uint64_t ci, std::uint64_t t) {
        McCell &cs = cell_state[static_cast<size_t>(ci)];
        // Under fixed contention the medium may still be occupied
        // by the previous grant's contention charge: per-user
        // processes advance, but no grant is issued.
        const bool busy = t < busy_until[static_cast<size_t>(ci)];
        for (size_t i = 0; i < cs.users.size(); ++i) {
            McUser &u = users[static_cast<size_t>(cs.users[i])];
            // tick() is a no-op for a quiescent ARQ (no matured
            // acknowledgement, nothing deliverable), which is the
            // common case at low load -- skip the walk.
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
            // for the fading evaluation, and a busy cell skips it
            // entirely (no grant to rank for).
            if (can_send && !busy &&
                spec.scheduler.kind ==
                    mac::SchedulerKind::ProportionalFair) {
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

        const int pick = cs.sched->pick(
            cs.eligible, cs.instRate,
            class_aware ? &cs.urgent : nullptr);
        if (pick < 0) {
            cs.grantedUser = -1;
            active[static_cast<size_t>(ci)] = 0;
            // Idle slots still close the scheduler's slot: the PF
            // throughput averages must decay while a cell is
            // silent, or the next burst would see stale metrics.
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
        // PF averages track attempted service; outcome-independent
        // so the slot can close here.
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
        // Fixed 1/k sharing: a grant contested by k eligible users
        // occupies the medium for k slots in total.
        if (fixed_contention && contenders > 1)
            busy_until[static_cast<size_t>(ci)] =
                t + static_cast<std::uint64_t>(contenders);
    };

    // ---- phase 2: SINR over the active set, transmit ------------
    auto phase_transmit = [&](std::uint64_t ci, std::uint64_t t) {
        McCell &cs = cell_state[static_cast<size_t>(ci)];
        if (cs.grantedUser < 0)
            return;
        McUser &u = users[static_cast<size_t>(cs.grantedUser)];
        const int serv = static_cast<int>(ci);

        const double h2 = u.fadingPower(t, spec.frameIntervalUs);
        const double sig = u.servGainLin * h2;
        // Under mobility the live matrix row replaces the static
        // topology gains (identical at epoch 0 by construction).
        const double *grow = mob ? mob->gainRow(u.id) : nullptr;
        double interference = 0.0;
        for (int c2 = 0; c2 < cells; ++c2) {
            if (c2 == serv || !active[static_cast<size_t>(c2)])
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
            // The bit-exact rung, conditioned on this slot's SINR:
            // the frame runs tx -> AWGN at the effective SINR ->
            // rx -> decode (interference enters as Gaussian noise,
            // the same conditioning the calibration table uses).
            if (!u.awgn)
                u.awgn = std::make_unique<channel::AwgnChannel>(
                    sinr_db, u.awgnSeed);
            else
                u.awgn->setSnrDb(sinr_db);
            std::unique_ptr<WorkerPhy> phy = phy_pool.acquire();
            phy->arena.reset();
            BitSpan payload =
                phy->arena.alloc<Bit>(payload_bits);
            fillDeterministicBits(payload, u.payloadSeed,
                                  cs.grantedSeq);
            FrameContext ctx(phy->arena);
            SampleSpan samples =
                phy->txAt(rate, spec.link.rx)
                    .modulate(payload, ctx);
            u.awgn->apply(samples, t);
            phy::RxFrame rx_frame =
                phy->rxAt(rate, spec.link.rx)
                    .demodulate(samples, payload_bits,
                                u.awgn.get(), t, ctx);
            fr.ok = rx_frame.bitErrors(payload) == 0;
            fr.pber = estimator.packetBerForRate(rate,
                                                 rx_frame.soft);
            fr.fullPhy = true;
            phy_pool.release(std::move(phy));
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
    // Runs single-threaded on worker 0 with the team held at a
    // barrier, so it may touch any cell's state.
    const bool pf =
        spec.scheduler.kind == mac::SchedulerKind::ProportionalFair;
    auto member_pos = [](const McCell &cs, int uid) {
        return static_cast<int>(
            std::lower_bound(cs.users.begin(), cs.users.end(), uid) -
            cs.users.begin());
    };
    auto resize_cell = [](McCell &cs) {
        cs.eligible.resize(cs.users.size());
        cs.urgent.assign(cs.users.size(), 0);
        cs.instRate.assign(cs.users.size(), 0.0);
    };
    auto remove_member = [&](int c, int uid, double *pf_carry) {
        McCell &cs = cell_state[static_cast<size_t>(c)];
        const int pos = member_pos(cs, uid);
        if (pf_carry)
            *pf_carry = cs.sched->averageRate(pos);
        cs.sched->removeUser(pos);
        cs.users.erase(cs.users.begin() + pos);
        resize_cell(cs);
    };
    auto insert_member = [&](int c, int uid, double pf_carry) {
        McCell &cs = cell_state[static_cast<size_t>(c)];
        const int pos = member_pos(cs, uid);
        cs.sched->insertUser(pos, pf_carry);
        cs.users.insert(cs.users.begin() + pos, uid);
        resize_cell(cs);
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
                // queued packets flush (qdrop reason 2), in-flight
                // ARQ frames abort (already-acked heads still
                // deliver in order).
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
              case MobilityRuntime::Event::Kind::Join: {
                insert_member(ev.toCell, ev.user, 0.0);
                u.cell = ev.toCell;
                u.tctx.rebind(ev.toCell, ev.toCell);
                if (trace)
                    u.traffic.bindTrace(trace.get(), ev.toCell,
                                        ev.toCell, u.id);
                break;
              }
              case MobilityRuntime::Event::Kind::Handover: {
                // Queue, ARQ window and rate-control state migrate
                // untouched; the PF throughput average carries so
                // the target cell does not treat the user as
                // starved.
                double carry = 0.0;
                remove_member(ev.fromCell, ev.user,
                              pf ? &carry : nullptr);
                insert_member(ev.toCell, ev.user, carry);
                u.cell = ev.toCell;
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
        // user's serving-link gain (cheap, and also what keeps the
        // PF metric and SINR on the moved positions).
        for (McUser &uu : users)
            uu.servGainLin = mob->servingGainLin(uu.id);
    };

    // ---- checkpoint/resume --------------------------------------
    // The adapter maps this engine onto the canonical snapshot
    // order; a fresh one is built per use (sync() re-derives the
    // membership map).
    auto make_ckpt = [&]() {
        PuCheckpoint a;
        a.users = &users;
        a.cells = &cell_state;
        a.busy = &busy_until;
        a.schedCfg = &spec.scheduler;
        a.mobp = mob.get();
        a.tracep = trace.get();
        a.sync();
        return a;
    };
    std::uint64_t start_slot = 0;
    if (spec.checkpoint.enabled() && spec.checkpoint.resume) {
        PuCheckpoint a = make_ckpt();
        start_slot = detail::loadMcCheckpoint(spec, a);
        wilis_assert(start_slot <= slots,
                     "checkpoint '%s' is at slot %llu, past the "
                     "%llu-slot horizon",
                     spec.checkpoint.file.c_str(),
                     static_cast<unsigned long long>(start_slot),
                     static_cast<unsigned long long>(slots));
        // Re-point the traffic sources' trace lanes at the restored
        // serving cells (the trace contexts restore their own lane;
        // a churned-out user keeps its initial binding, which is
        // dormant until the next join rebinds it).
        if (trace) {
            for (McUser &u : users)
                if (a.cellOf[static_cast<size_t>(u.id)] >= 0)
                    u.traffic.bindTrace(
                        trace.get(),
                        a.cellOf[static_cast<size_t>(u.id)],
                        a.cellOf[static_cast<size_t>(u.id)], u.id);
        }
    }
    const std::uint64_t ckpt_every =
        spec.checkpoint.enabled() ? spec.checkpoint.everySlots : 0;

    int n = threads > 0
                ? threads
                : static_cast<int>(std::max(
                      1u, std::thread::hardware_concurrency()));
    n = std::min(n, cells);

    // The whole slot loop runs inside one LockstepTeam::run():
    // cells are statically partitioned across workers (each cell's
    // state has exactly one owner, so static and dynamic sharding
    // compute identical results) and the two phases are separated
    // by barriers -- two per slot, where the old per-slot
    // ThreadPool::parallelFor pair cost four condition-variable
    // handshakes (the grid-3x3 thread-scaling regression). This
    // barrier-phase ownership is lock-free by design and therefore
    // invisible to -Wthread-safety; the CI TSan leg is what holds
    // it (docs/ARCHITECTURE.md, "Static determinism guarantees").
    LockstepTeam team(n);
    const int chunk = (cells + n - 1) / n;
    const std::uint64_t epoch_slots = mob ? mob->epochSlots() : 1;
    team.run([&](int w) {
        const int c_lo = std::min(cells, w * chunk);
        const int c_hi = std::min(cells, c_lo + chunk);
        for (std::uint64_t t = start_slot; t < slots; ++t) {
            if (ckpt_every != 0 && t > start_slot &&
                t % ckpt_every == 0) {
                // Every worker evaluates the same condition, so the
                // whole team is parked at this barrier while worker
                // 0 serializes -- the snapshot sees the state after
                // slot t - 1, before slot t's mobility epoch.
                if (w == 0) {
                    PuCheckpoint a = make_ckpt();
                    detail::saveMcCheckpoint(spec, a, t);
                }
                team.barrier();
            }
            if (mob && t % epoch_slots == 0) {
                // The previous slot's trailing barrier (or run()
                // entry at t = 0) already synced the team, so
                // worker 0 may mutate any cell's state here; one
                // barrier releases the others afterwards.
                if (w == 0)
                    apply_mobility(t);
                team.barrier();
            }
            for (int c = c_lo; c < c_hi; ++c)
                phase_schedule(static_cast<std::uint64_t>(c), t);
            team.barrier();
            for (int c = c_lo; c < c_hi; ++c)
                phase_transmit(static_cast<std::uint64_t>(c), t);
            // Phase 1 of slot t+1 rewrites active[] -- every
            // cell's phase 2 must have read it first.
            team.barrier();
        }
    });

    // Drain acknowledgements still in flight at the horizon so
    // their deliveries are counted (no new transmissions).
    for (McUser &u : users) {
        std::vector<mac::Arq::Delivery> tail;
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
    }

    // Mobility outcome statistics (the final serving cell replaces
    // the drop-time association; the first-handover slot splits the
    // run into the before/after throughput windows).
    for (McUser &u : users) {
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
    // from the finalized trace's Ack events, so it exists exactly
    // when the trace does.
    if (trace) {
        trace->finalize(n);
        for (const auto &e : trace->entries()) {
            if (e.event == mac::PacketEvent::Ack)
                users[static_cast<size_t>(e.user)]
                    .stats.e2eLatencyHist.add(
                        static_cast<double>(e.arg1));
        }
        res.trace = trace;
    }

    res.users.resize(static_cast<size_t>(num_users));
    for (int u = 0; u < num_users; ++u)
        res.users[static_cast<size_t>(u)] =
            users[static_cast<size_t>(u)].stats;

    // Aggregate in user order: the merge sequence is fixed, so the
    // merged floating-point statistics are deterministic too.
    res.aggregate = UserStats();
    res.aggregate.user = -1;
    for (const UserStats &u : res.users)
        res.aggregate.merge(u);
    return res;
}

} // namespace sim
} // namespace wilis
