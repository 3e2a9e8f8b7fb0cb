/**
 * @file
 * The structure-of-arrays multi-cell engine behind NetworkSim::run()
 * (model and execution contract in multicell_sim.hh). Per-user state
 * lives in per-cell contiguous arrays, and phase 2's math runs
 * through the runtime-dispatched kernels:
 *
 *   sinrAccumBatch -- interference fades (counter-RNG in u64
 *       lanes), gain-weighted accumulation and dB conversion for
 *       every granted user of a worker's cells in one call;
 *   perDrawBatch   -- calibrated PER interpolation + Bernoulli
 *       frame draws over the flattened table for the same batch.
 *
 * Because every kernel lane computes the textually identical scalar
 * expression (see kernels_impl.hh), the engine reproduces the plain
 * per-user walk of the same model (the single-threaded test oracle,
 * tests/peruser_reference.cc) bit-for-bit at any thread count and
 * any kernel backend -- pinned by tests/test_multicell.cc and the
 * slow-label equivalence test in tests/test_simd_kernels.cc.
 *
 * Immutable derived per-user state (Jakes oscillator banks with
 * their |h|^2 bounds and pair forms, forked stream keys, serving
 * gains, the flattened calibration table) is a pure function of
 * (spec, topology, table) and is cached across run() calls in
 * McSoaCache, owned by NetworkSim.
 *
 * Checkpoint/resume (saveCheckpoint() / loadCheckpoint()) serializes
 * the mutable run state in a canonical order -- global user id, then
 * cell index -- so a snapshot is byte-identical at any thread count,
 * and every restored value is checked before the run uses it.
 */

#include <algorithm>
#include <cmath>
#include <complex>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "channel/awgn.hh"
#include "channel/fading.hh"
#include "common/kernels.hh"
#include "common/lockstep.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "common/snapshot.hh"
#include "mac/arq.hh"
#include "mac/packet_trace.hh"
#include "mac/scheduler.hh"
#include "mac/softrate.hh"
#include "mac/traffic.hh"
#include "sim/link_fidelity.hh"
#include "sim/mobility.hh"
#include "sim/multicell_detail.hh"
#include "sim/multicell_sim.hh"
#include "sim/worker_phy.hh"

namespace wilis {
namespace sim {

using detail::notePop;
using detail::recordDelivery;
using detail::recordGrant;
using detail::recordMobilityEvent;
using detail::recordTx;

/** See the declaration in multicell_sim.hh. */
struct McSoaCache {
    // ---- layout: SoA index = position in cell-major user order
    // (cell 0's users by increasing id, then cell 1's, ...), so
    // each cell's state is one contiguous block.
    std::vector<int> order;               // soa index -> user id
    std::vector<int> soaOf;               // user id -> soa index
    std::vector<std::uint32_t> cellBegin; // cells + 1 offsets

    // ---- immutable per-user derived state, soa-indexed
    std::vector<std::int32_t> serving;    // serving cell
    std::vector<double> servGain;         // serving link, linear
    std::vector<double> meanSnr;          // serving link, dB
    std::vector<const double *> gainRows; // into topo's matrix
    std::vector<std::uint64_t> faderSeed;
    std::vector<std::uint64_t> payloadSeed;
    std::vector<std::uint64_t> trafficSeed;
    std::vector<std::uint64_t> drawKey;  // analytic success draws
    std::vector<std::uint64_t> interfKey; // interference fades
    std::vector<std::uint64_t> awgnSeed;
    std::vector<channel::JakesFader> faders; // gainAt() is const
    // Proportional fair only: each fader's powerBound() over slots
    // [0, boundSlots), grown like the memo below when a run is
    // longer (a bound for a longer horizon holds for a shorter one),
    // and its pair form, the per-slot |h|^2 interval of the pick.
    std::uint64_t boundSlots = 0;
    std::vector<double> h2Bound;
    std::vector<channel::JakesPairForm> pairForms;

    // ---- flattened calibration (analytic/auto modes only)
    softphy::FlatCalibration flat;
    bool hasFlat = false;

    // Cross-run memo of the granted user's serving-link |h|^2 per
    // (slot, cell): JakesFader::gainAt() is a pure function of
    // (fader, t), so a value computed in one run is valid in every
    // later run of the same spec -- memoization cannot change
    // results. Phase 2 writes each granted cell's entry; a lookup
    // hits only when the entry names the asking user, and anything
    // else falls back to the per-run memo. A rerun grants the same
    // users, so it finds every grant here. Bounded by kH2MemoBytes;
    // slots past h2Slots use the per-run memo only. Entry (t, c) is
    // read and written only by the worker that owns cell c, so
    // access is race-free. An unwritten entry names user -1.
    struct H2Entry {
        std::int32_t user = -1; // granted soa index
        double h2 = 0.0;
    };
    static constexpr std::uint64_t kH2MemoBytes = 64ull << 20;
    std::uint64_t h2Slots = 0;      // slots covered by the memo
    std::vector<H2Entry> h2;        // [slot * cells + cell]
};

namespace {

std::shared_ptr<McSoaCache>
buildCache(const NetworkSpec &spec, const Topology &topo,
           const softphy::CalibrationTable *table)
{
    const int cells = topo.numCells();
    const int num_users = topo.numUsers();
    auto cache = std::make_shared<McSoaCache>();

    cache->order.reserve(static_cast<size_t>(num_users));
    cache->cellBegin.reserve(static_cast<size_t>(cells) + 1);
    cache->cellBegin.push_back(0);
    for (int c = 0; c < cells; ++c) {
        for (int id : topo.cellUsers(c))
            cache->order.push_back(id);
        cache->cellBegin.push_back(
            static_cast<std::uint32_t>(cache->order.size()));
    }
    cache->soaOf.assign(static_cast<size_t>(num_users), -1);
    for (int i = 0; i < num_users; ++i)
        cache->soaOf[static_cast<size_t>(cache->order[
            static_cast<size_t>(i)])] = i;

    const size_t n = static_cast<size_t>(num_users);
    cache->serving.resize(n);
    cache->servGain.resize(n);
    cache->meanSnr.resize(n);
    cache->gainRows.resize(n);
    cache->faderSeed.resize(n);
    cache->payloadSeed.resize(n);
    cache->trafficSeed.resize(n);
    cache->drawKey.resize(n);
    cache->interfKey.resize(n);
    cache->awgnSeed.resize(n);
    cache->faders.reserve(n);
    for (size_t i = 0; i < n; ++i) {
        const int id = cache->order[i];
        const int cell = topo.servingCell(id);
        cache->serving[i] = static_cast<std::int32_t>(cell);
        cache->servGain[i] = topo.linkGainLin(id, cell);
        cache->meanSnr[i] = topo.servingSnrDb(id);
        cache->gainRows[i] = topo.gainRow(id);
        // The per-user seed chain: one purpose family, then
        // the user id, then the per-purpose counters.
        const CounterRng seeds =
            CounterRng(spec.seed)
                .fork(0xCE77ull)
                .fork(static_cast<std::uint64_t>(id));
        cache->faderSeed[i] = seeds.at(0);
        cache->payloadSeed[i] = seeds.at(1);
        cache->trafficSeed[i] = seeds.at(2);
        cache->drawKey[i] = seeds.at(3);
        cache->interfKey[i] = seeds.at(4);
        cache->awgnSeed[i] = seeds.at(5);
        cache->faders.emplace_back(spec.dopplerHz,
                                   cache->faderSeed[i]);
    }

    if (table) {
        cache->flat = table->flatten();
        cache->hasFlat = true;
    }
    return cache;
}

/**
 * The engine's mutable run state -- per-user lanes (soa-indexed),
 * per-cell blocks (cell-indexed), and the mobility runtime and
 * packet trace when enabled: everything a checkpoint carries.
 */
struct SoaState {
    std::vector<mac::Arq> arqs;
    std::vector<mac::TrafficSource> traffic;
    std::vector<mac::SoftRateMac> softrate;
    std::vector<UserStats> stats;
    std::vector<detail::TraceCtx> tctx;
    /** Serving-link gains, moved by the mobility epochs. */
    std::vector<double> servGain;
    /** Cell membership: SoA indices ordered by global user id. */
    std::vector<std::vector<std::uint32_t>> members;
    std::vector<mac::CellScheduler> scheds;
    std::vector<std::vector<std::uint8_t>> eligible;
    std::vector<std::vector<std::uint8_t>> urgent;
    /** PF: each member's rate bound, by local index. */
    std::vector<std::vector<double>> rateBound;
    /** Fixed-contention airtime: a cell is busy until this slot. */
    std::vector<std::uint64_t> busyUntil;
    std::unique_ptr<MobilityRuntime> mob;
    std::shared_ptr<mac::PacketTrace> trace;

    /** Size cell @p c's per-member scratch to its membership. */
    void
    resizeCell(int c)
    {
        const size_t cn = members[static_cast<size_t>(c)].size();
        eligible[static_cast<size_t>(c)].resize(cn);
        urgent[static_cast<size_t>(c)].assign(cn, 0);
        rateBound[static_cast<size_t>(c)].assign(cn, 0.0);
    }
};

// ------------------------------------------------ checkpointing
//
// Snapshot payload, in order: the slot to resume at; per-user blocks
// in global-user-id order (member cell or -1, serving gain,
// SoftRate, ARQ, traffic, trace context if tracing, UserStats);
// per-cell blocks in cell order (member ids, scheduler, busy-until
// slot); the mobility runtime if enabled; the packet trace if
// tracing.

/** Payload version of the multi-cell checkpoint format. */
constexpr std::uint32_t kMcCheckpointVersion = 1;

/** Serialize one RunningStats by raw accumulator state (exact). */
void
saveStats(SnapshotWriter &w, const RunningStats &s)
{
    const RunningStats::State st = s.state();
    w.u64(st.n);
    w.f64(st.offset);
    w.f64(st.sum);
    w.f64(st.sum_sq);
}

/** Inverse of saveStats(). */
RunningStats
loadStats(SnapshotReader &r)
{
    RunningStats::State st;
    st.n = r.u64();
    st.offset = r.f64();
    st.sum = r.f64();
    st.sum_sq = r.f64();
    return RunningStats::fromState(st);
}

/**
 * Serialize one Histogram's counts. An empty histogram writes only
 * its zero total, preserving the lazy-allocation state on resume.
 */
void
saveHist(SnapshotWriter &w, const Histogram &h)
{
    w.u64(h.total());
    if (h.total() == 0)
        return;
    for (int b = 0; b < h.numBins(); ++b)
        w.u64(h.count(b));
}

/** Inverse of saveHist() (into a same-binning histogram). */
void
loadHist(SnapshotReader &r, Histogram &h)
{
    const std::uint64_t total = r.u64();
    std::vector<std::uint64_t> counts;
    if (total > 0) {
        counts.resize(static_cast<size_t>(h.numBins()));
        for (std::uint64_t &c : counts)
            c = r.u64();
    }
    if (!h.restore(counts, total))
        r.fail(strprintf("histogram counts that do not add up to "
                         "their total %llu",
                         static_cast<unsigned long long>(total)));
}

/**
 * Serialize one user's statistics: the identity fields, then the
 * accumulated members in kUserStatsCounters / Moments / Hists order.
 */
void
saveUserStats(SnapshotWriter &w, const UserStats &st)
{
    w.marker(0x54415355); // "USAT"
    w.i64(st.user);
    w.f64(st.snrOffsetDb);
    w.i64(st.servingCell);
    w.f64(st.meanSnrDb);
    for (const auto &f : kUserStatsCounters)
        w.u64(st.*f.member);
    for (const auto &f : kUserStatsMoments)
        saveStats(w, st.*f.member);
    for (const auto &f : kUserStatsHists)
        saveHist(w, st.*f.member);
}

/** Inverse of saveUserStats() for user @p id of a @p cells grid. */
void
loadUserStats(SnapshotReader &r, UserStats &st, int id, int cells)
{
    r.marker(0x54415355);
    st.user = static_cast<int>(r.i64In(id, id + 1, "user-stats id"));
    st.snrOffsetDb = r.f64();
    st.servingCell =
        static_cast<int>(r.i64In(0, cells, "user-stats serving cell"));
    st.meanSnrDb = r.f64();
    for (const auto &f : kUserStatsCounters)
        st.*f.member = r.u64();
    for (const auto &f : kUserStatsMoments)
        st.*f.member = loadStats(r);
    for (const auto &f : kUserStatsHists)
        loadHist(r, st.*f.member);
}

/**
 * Serialize a user's trace lane and seq ring. The trace pointer is
 * not stored -- the engine binds it before loadTraceCtx() restores
 * the lane and the in-flight packet identities bind() wiped. The
 * lane *is* stored because a churned-out user keeps its
 * pre-departure binding until the next join rebinds it, and the
 * resumed run must reproduce that exactly.
 */
void
saveTraceCtx(SnapshotWriter &w, const detail::TraceCtx &tc)
{
    w.i64(tc.shard);
    w.i64(tc.cell);
    w.u64(tc.ring.size());
    for (const detail::PktRef &p : tc.ring) {
        w.u64(p.pkt);
        w.u64(p.arrival);
        w.u8(static_cast<std::uint8_t>(p.cls));
    }
}

/** Inverse of saveTraceCtx() (after bind()) on a @p cells grid. */
void
loadTraceCtx(SnapshotReader &r, detail::TraceCtx &tc, int cells)
{
    tc.shard = static_cast<int>(r.i64In(0, cells, "trace lane"));
    tc.cell = static_cast<int>(r.i64In(0, cells, "trace cell"));
    const std::uint64_t n = r.u64();
    if (n != tc.ring.size())
        r.fail(strprintf("trace ring of %llu slots for an ARQ window "
                         "of %zu",
                         static_cast<unsigned long long>(n),
                         tc.ring.size()));
    for (detail::PktRef &p : tc.ring) {
        p.pkt = r.u64();
        p.arrival = r.u64();
        p.cls = static_cast<mac::TrafficClass>(
            r.u8Below(mac::kTrafficClassNames.values, "packet class"));
    }
}

/**
 * Write @p st as the state after slot @p slot - 1 to
 * spec.checkpoint.file. Must run with every worker parked at a
 * barrier (single writer).
 */
void
saveCheckpoint(const NetworkSpec &spec, const McSoaCache &cache,
               const SoaState &st, std::uint64_t slot)
{
    const int users = static_cast<int>(cache.order.size());
    const int cells = static_cast<int>(st.members.size());
    std::vector<int> cell_of(static_cast<size_t>(users), -1);
    for (int c = 0; c < cells; ++c)
        for (std::uint32_t i : st.members[static_cast<size_t>(c)])
            cell_of[static_cast<size_t>(cache.order[i])] = c;

    SnapshotWriter w(kMcCheckpointVersion, spec.fingerprint());
    w.u64(slot);
    for (int id = 0; id < users; ++id) {
        const size_t i =
            static_cast<size_t>(cache.soaOf[static_cast<size_t>(id)]);
        w.i64(cell_of[static_cast<size_t>(id)]);
        w.f64(st.servGain[i]);
        st.softrate[i].saveState(w);
        st.arqs[i].saveState(w);
        st.traffic[i].saveState(w);
        if (st.trace)
            saveTraceCtx(w, st.tctx[i]);
        saveUserStats(w, st.stats[i]);
    }
    for (int c = 0; c < cells; ++c) {
        const std::vector<std::uint32_t> &mem =
            st.members[static_cast<size_t>(c)];
        w.u64(mem.size());
        for (std::uint32_t i : mem)
            w.i64(cache.order[i]);
        st.scheds[static_cast<size_t>(c)].saveState(w);
        w.u64(st.busyUntil[static_cast<size_t>(c)]);
    }
    if (st.mob)
        st.mob->saveState(w);
    if (st.trace)
        st.trace->saveState(w);
    w.save(spec.checkpoint.file);
}

/**
 * Inverse of saveCheckpoint(): restore spec.checkpoint.file into
 * the freshly built state @p st (initial bindings done, no slot run)
 * and return the slot to resume at. Fatal on a missing file,
 * version or spec skew, a snapshot past the @p slots horizon, and
 * any restored value no run can reach -- an out-of-range enum,
 * index or count, or a cell membership that disagrees with the
 * mobility runtime (or, without mobility, with the topology).
 */
std::uint64_t
loadCheckpoint(const NetworkSpec &spec, const McSoaCache &cache,
               SoaState &st, std::uint64_t slots)
{
    const std::string &path = spec.checkpoint.file;
    SnapshotReader r(path, kMcCheckpointVersion, spec.fingerprint());
    const std::uint64_t slot = r.u64();
    wilis_fatal_if(slot > slots,
                   "checkpoint '%s' is at slot %llu, past the "
                   "%llu-slot horizon",
                   path.c_str(), static_cast<unsigned long long>(slot),
                   static_cast<unsigned long long>(slots));
    const int users = static_cast<int>(cache.order.size());
    const int cells = static_cast<int>(st.members.size());
    auto soa = [&](int id) {
        return static_cast<size_t>(
            cache.soaOf[static_cast<size_t>(id)]);
    };

    std::vector<int> cell_of(static_cast<size_t>(users));
    for (int id = 0; id < users; ++id) {
        const size_t i = soa(id);
        cell_of[static_cast<size_t>(id)] =
            static_cast<int>(r.i64In(-1, cells, "member cell"));
        st.servGain[i] = r.f64();
        if (!(std::isfinite(st.servGain[i]) && st.servGain[i] >= 0.0))
            r.fail(strprintf("serving gain %g", st.servGain[i]));
        st.softrate[i].loadState(r);
        st.arqs[i].loadState(r, slot);
        st.traffic[i].loadState(r);
        if (st.trace)
            loadTraceCtx(r, st.tctx[i], cells);
        loadUserStats(r, st.stats[i], id, cells);
    }
    for (int c = 0; c < cells; ++c) {
        // Member lists are increasing ids whose member cell is c,
        // and every such user is listed.
        std::vector<std::uint32_t> &mem =
            st.members[static_cast<size_t>(c)];
        mem.clear();
        const std::uint64_t n = r.count(sizeof(std::int64_t));
        const auto want = static_cast<std::uint64_t>(
            std::count(cell_of.begin(), cell_of.end(), c));
        for (std::uint64_t k = 0; k < n; ++k) {
            const int lo = mem.empty() ? 0 : cache.order[mem.back()] + 1;
            const int id =
                static_cast<int>(r.i64In(lo, users, "member id"));
            if (cell_of[static_cast<size_t>(id)] != c)
                r.fail(strprintf("user %d listed in cell %d, its "
                                 "member cell is %d",
                                 id, c,
                                 cell_of[static_cast<size_t>(id)]));
            mem.push_back(static_cast<std::uint32_t>(soa(id)));
        }
        if (n != want)
            r.fail(strprintf("cell %d lists %llu of its %llu members",
                             c, static_cast<unsigned long long>(n),
                             static_cast<unsigned long long>(want)));
        st.scheds[static_cast<size_t>(c)] = mac::CellScheduler(
            spec.scheduler, static_cast<int>(mem.size()));
        st.resizeCell(c);
        st.scheds[static_cast<size_t>(c)].loadState(r);
        st.busyUntil[static_cast<size_t>(c)] = r.u64();
    }
    if (st.mob)
        st.mob->loadState(r, slot);
    if (st.trace)
        st.trace->loadState(r, cells, users);
    r.done();

    // Membership is what the run reached: the mobility runtime's
    // active users in their serving cells, or the static topology.
    for (int id = 0; id < users; ++id) {
        const int want =
            !st.mob ? cache.serving[soa(id)]
            : st.mob->userActive(id) ? st.mob->servingCell(id)
                                     : -1;
        if (cell_of[static_cast<size_t>(id)] != want)
            r.fail(strprintf("user %d in cell %d, the run places it "
                             "in %d",
                             id, cell_of[static_cast<size_t>(id)],
                             want));
    }
    // Re-point the traffic sources' trace lanes at the restored
    // member cells (the trace contexts restore their own lane; a
    // churned-out user keeps its initial binding, which is dormant
    // until the next join rebinds it).
    if (st.trace) {
        for (int id = 0; id < users; ++id) {
            const int c = cell_of[static_cast<size_t>(id)];
            if (c >= 0)
                st.traffic[soa(id)].bindTrace(st.trace.get(), c, c,
                                              id);
        }
    }
    return slot;
}

} // namespace

NetworkResult
runMulticellSoa(
    const NetworkSpec &spec, const Topology &topo,
    const softphy::BerEstimator &estimator,
    std::shared_ptr<const softphy::CalibrationTable> calib,
    std::uint64_t slots, int threads,
    std::shared_ptr<McSoaCache> &cache_slot)
{
    const int cells = topo.numCells();
    const int num_users = topo.numUsers();
    const size_t payload_bits = spec.link.payloadBits;
    const softphy::CalibrationTable *table =
        spec.fidelity.mode != FidelityMode::Full ? calib.get()
                                                 : nullptr;
    if (spec.fidelity.mode != FidelityMode::Full)
        wilis_assert(table && table->valid(),
                     "analytic fidelity needs a calibration table");

    // Immutable derived state: derived on the first run, reused by
    // every later one (the slot's owner never changes its inputs).
    if (!cache_slot)
        cache_slot = buildCache(spec, topo, table);
    McSoaCache &cache = *cache_slot;
    // Grow the cross-run |h|^2 memo to cover this run (bounded);
    // resize preserves filled slots because the layout is
    // slot-major.
    const size_t cells_sz = static_cast<size_t>(cells);
    {
        const std::uint64_t entry = sizeof(McSoaCache::H2Entry);
        const std::uint64_t cap = std::max<std::uint64_t>(
            1, McSoaCache::kH2MemoBytes / (entry * cells_sz));
        const std::uint64_t want = std::min(slots, cap);
        if (want > cache.h2Slots) {
            cache.h2.resize(static_cast<size_t>(want) * cells_sz);
            cache.h2Slots = want;
        }
    }
    const bool pf = spec.scheduler.kind ==
                    mac::SchedulerKind::ProportionalFair;
    if (pf && slots > cache.boundSlots) {
        const double horizon_us =
            static_cast<double>(slots) * spec.frameIntervalUs;
        cache.h2Bound.resize(cache.faders.size());
        for (size_t i = 0; i < cache.faders.size(); ++i)
            cache.h2Bound[i] = cache.faders[i].powerBound(horizon_us);
        cache.boundSlots = slots;
    }
    if (pf && cache.pairForms.empty()) {
        cache.pairForms.reserve(cache.faders.size());
        for (const channel::JakesFader &f : cache.faders)
            cache.pairForms.emplace_back(f);
    }
    const kernels::PerTableView flat_view =
        cache.hasFlat ? cache.flat.view() : kernels::PerTableView{};

    NetworkResult res;
    res.spec = spec;
    res.slots = slots;
    res.cells = cells;

    // ---- mutable per-user state, soa-indexed -------------------
    const size_t nu = static_cast<size_t>(num_users);
    mac::SoftRateMac::Config src;
    src.pberLo = spec.pberLo;
    src.pberHi = spec.pberHi;
    src.initialRate = spec.link.rate;
    mac::Arq::Config ac;
    ac.mode = spec.arqMode;
    ac.window = spec.arqWindow;
    ac.maxAttempts = spec.arqMaxAttempts;
    ac.ackDelaySlots = spec.ackDelaySlots;

    SoaState st;
    st.arqs.reserve(nu);
    st.traffic.reserve(nu);
    st.softrate.reserve(nu);
    st.stats.resize(nu);
    for (size_t i = 0; i < nu; ++i) {
        st.arqs.emplace_back(ac);
        st.traffic.emplace_back(spec.traffic, cache.trafficSeed[i]);
        st.softrate.emplace_back(src);
        st.stats[i].user = cache.order[i];
        st.stats[i].servingCell = cache.serving[i];
        st.stats[i].meanSnrDb = cache.meanSnr[i];
    }
    // The packet trace records per-cell (one shard per cell, each
    // written only by the cell's owning worker).
    st.tctx.resize(nu);
    if (spec.trace) {
        st.trace = std::make_shared<mac::PacketTrace>(cells);
        for (size_t i = 0; i < nu; ++i) {
            const int cell = static_cast<int>(cache.serving[i]);
            const int id = cache.order[i];
            st.tctx[i].bind(st.trace.get(), cell, cell, id,
                            st.arqs[i].windowSize());
            st.traffic[i].bindTrace(st.trace.get(), cell, cell, id);
        }
    }
    // Mobility / handover / churn: one decision engine applying its
    // epochs between barriers. The cache stays immutable (it is
    // shared across runs); all membership-dependent state is
    // run-local.
    if (spec.mobility.enabled())
        st.mob = std::make_unique<MobilityRuntime>(
            spec.mobility, topo, spec.seed, spec.frameIntervalUs);
    // Run-local serving gains start as the cache's static values and
    // move with the epochs under mobility (the fader, payload,
    // traffic and draw streams are serving-cell-independent by
    // construction, so they stay cached).
    st.servGain = cache.servGain;
    // Run-local cell membership: SoA indices ordered by global user
    // id, which is what keeps scheduler local indices identical to
    // the per-user walk's. Static runs never mutate it, so it is
    // exactly the cache's cell-major blocks.
    st.members.resize(static_cast<size_t>(cells));
    st.eligible.resize(static_cast<size_t>(cells));
    st.urgent.resize(static_cast<size_t>(cells));
    st.rateBound.resize(static_cast<size_t>(cells));
    st.scheds.reserve(static_cast<size_t>(cells));
    for (int c = 0; c < cells; ++c) {
        for (std::uint32_t i =
                 cache.cellBegin[static_cast<size_t>(c)];
             i < cache.cellBegin[static_cast<size_t>(c) + 1]; ++i)
            st.members[static_cast<size_t>(c)].push_back(i);
        st.scheds.emplace_back(
            spec.scheduler,
            static_cast<int>(st.members[static_cast<size_t>(c)].size()));
        st.resizeCell(c);
    }
    st.busyUntil.assign(static_cast<size_t>(cells), 0);

    // Short names for the slot loop below.
    auto &arqs = st.arqs;
    auto &traffic = st.traffic;
    auto &softrate = st.softrate;
    auto &stats = st.stats;
    auto &tctx = st.tctx;
    auto &serv_gain = st.servGain;
    auto &members = st.members;
    auto &scheds = st.scheds;
    auto &eligible = st.eligible;
    auto &urgent = st.urgent;
    auto &rate_bound = st.rateBound;
    auto &busy_until = st.busyUntil;
    const auto &mob = st.mob;
    const auto &trace = st.trace;

    auto post_ho = [&](std::uint32_t i) {
        return mob &&
               mob->handovers(cache.order[static_cast<size_t>(i)]) >
                   0;
    };
    // Gain-row pointers: the topology's, or the live mobility rows.
    std::vector<const double *> rows(cache.gainRows);
    if (mob) {
        for (size_t i = 0; i < nu; ++i)
            rows[i] = mob->gainRow(cache.order[i]);
    }

    // Serving-link |h|^2 of user @p i at slot @p t, asked by cell
    // @p c: the cross-run memo's entry for (t, c) when it names @p i,
    // else the per-run memo (one slot per user), matching the
    // per-user oracle's fadingPower().
    std::vector<double> h2val(nu, 0.0);
    std::vector<std::uint64_t> h2slot(nu, 0);
    std::vector<std::uint8_t> h2valid(nu, 0);
    auto memoAt = [&](std::uint64_t t, int c) {
        return static_cast<size_t>(t) * cells_sz + static_cast<size_t>(c);
    };
    auto fadingPower = [&](int i, int c, std::uint64_t t) {
        const size_t s = static_cast<size_t>(i);
        if (t < cache.h2Slots) {
            const McSoaCache::H2Entry &e = cache.h2[memoAt(t, c)];
            if (e.user == i)
                return e.h2;
        }
        if (h2slot[s] != t || !h2valid[s]) {
            h2val[s] = std::norm(cache.faders[s].gainAt(
                static_cast<double>(t) * spec.frameIntervalUs));
            h2slot[s] = t;
            h2valid[s] = 1;
        }
        return h2val[s];
    };
    // Full-PHY rung only, lazily constructed.
    std::vector<std::unique_ptr<channel::AwgnChannel>> awgn(nu);

    // ---- per-cell slot scratch ---------------------------------
    std::vector<std::vector<mac::Arq::Delivery>> deliveries(
        static_cast<size_t>(cells));
    for (auto &d : deliveries)
        d.reserve(static_cast<size_t>(spec.arqWindow) + 1);
    std::vector<int> granted_soa(static_cast<size_t>(cells), -1);
    std::vector<std::uint64_t> granted_seq(
        static_cast<size_t>(cells), 0);
    // Granted-cell flags, double-buffered by slot parity: a worker
    // already in phase 1 of slot t + 1 writes active[(t + 1) & 1]
    // while a slower one's phase 2 of slot t still reads
    // active[t & 1], so no barrier has to separate the two.
    std::vector<std::uint8_t> active[2] = {
        std::vector<std::uint8_t>(static_cast<size_t>(cells), 0),
        std::vector<std::uint8_t>(static_cast<size_t>(cells), 0)};
    const bool class_aware =
        spec.traffic.qdisc == mac::QdiscKind::StrictPriority;
    const bool fixed_contention =
        spec.scheduler.contention == mac::ContentionMode::Fixed;

    // PF: each member's upper bound on its instantaneous rate
    // log2(1 + g |h|^2), from its fader's |h|^2 bound. The margin
    // covers log2, which libm does not promise to be monotone.
    // Serving gains and membership move only at mobility epochs,
    // which refresh it.
    auto refresh_rate_bounds = [&] {
        for (int c = 0; c < cells; ++c) {
            const std::vector<std::uint32_t> &mem =
                members[static_cast<size_t>(c)];
            std::vector<double> &bound =
                rate_bound[static_cast<size_t>(c)];
            for (size_t m = 0; m < mem.size(); ++m)
                bound[m] = std::log2(1.0 + serv_gain[mem[m]] *
                                               cache.h2Bound[mem[m]]) *
                           (1.0 + 0x1p-40);
        }
    };

    // ---- phase 1: deliver ACKs, draw traffic, schedule ---------
    auto phase_schedule = [&](int c, std::uint64_t t) {
        const std::vector<std::uint32_t> &mem =
            members[static_cast<size_t>(c)];
        std::vector<std::uint8_t> &elig =
            eligible[static_cast<size_t>(c)];
        std::vector<std::uint8_t> &urg =
            urgent[static_cast<size_t>(c)];
        const std::vector<double> &bound =
            rate_bound[static_cast<size_t>(c)];
        std::vector<mac::Arq::Delivery> &del =
            deliveries[static_cast<size_t>(c)];
        std::vector<std::uint8_t> &act = active[t & 1];
        // Under fixed contention the medium may still be occupied
        // by the previous grant's contention charge: per-user
        // processes advance, but no grant is issued.
        const bool busy = t < busy_until[static_cast<size_t>(c)];
        for (size_t m = 0; m < mem.size(); ++m) {
            const std::uint32_t i = mem[m];
            if (!arqs[i].quiescentAt(t)) {
                del.clear();
                arqs[i].tick(t, del);
                for (const auto &d : del)
                    recordDelivery(stats[i], d, payload_bits, t,
                                   tctx[i], post_ho(i));
            }
            traffic[i].tick(t);
            const bool can_send =
                arqs[i].hasResend() ||
                (traffic[i].backlogged() &&
                 arqs[i].windowHasRoom());
            elig[m] = can_send ? 1 : 0;
            if (class_aware)
                urg[m] =
                    traffic[i].controlBacklogged() ? 1 : 0;
        }

        if (busy) {
            // The contention charge consumes the slot: everyone
            // with traffic stalls, the scheduler's clock advances.
            granted_soa[static_cast<size_t>(c)] = -1;
            act[static_cast<size_t>(c)] = 0;
            scheds[static_cast<size_t>(c)].update(-1, 0.0);
            for (size_t m = 0; m < mem.size(); ++m) {
                if (elig[m])
                    ++stats[mem[m]].stalledSlots;
            }
            return;
        }

        // The noise-limited instantaneous rate (interference is
        // unknown until every cell has scheduled), evaluated only
        // for the users the PF pick cannot rule out by bound or
        // interval.
        auto rate = [&](int m) {
            const std::uint32_t i = mem[static_cast<size_t>(m)];
            return std::log2(
                1.0 + serv_gain[i] *
                          fadingPower(static_cast<int>(i), c, t));
        };
        // PF: an interval around the rate from the pair form's
        // |h|^2 interval, with the static bound's margin for log2
        // on either side.
        auto interval = [&](int m) {
            const std::uint32_t i = mem[static_cast<size_t>(m)];
            const channel::PowerInterval p =
                cache.pairForms[i].powerAt(static_cast<double>(t) *
                                           spec.frameIntervalUs);
            return mac::RateInterval{
                std::log2(1.0 + serv_gain[i] * p.lo) *
                    (1.0 - 0x1p-40),
                std::log2(1.0 + serv_gain[i] * p.hi) *
                    (1.0 + 0x1p-40)};
        };
        const int pick = scheds[static_cast<size_t>(c)].pick(
            elig, bound, rate, class_aware ? &urg : nullptr,
            interval);
        if (pick < 0) {
            granted_soa[static_cast<size_t>(c)] = -1;
            act[static_cast<size_t>(c)] = 0;
            scheds[static_cast<size_t>(c)].update(-1, 0.0);
            return;
        }
        const std::uint32_t g = mem[static_cast<size_t>(pick)];
        const bool allow_new =
            traffic[g].backlogged() && arqs[g].windowHasRoom();
        const std::uint64_t prev_next = arqs[g].nextSeq();
        std::uint64_t seq = 0;
        const bool sending = arqs[g].nextToSend(t, seq, allow_new);
        wilis_assert(sending, "scheduler granted an idle user");
        std::int64_t first_wait = 0;
        if (arqs[g].nextSeq() != prev_next) {
            const mac::Packet p = traffic[g].pop(t);
            stats[g].queueWaitSlots.add(
                static_cast<double>(t - p.arrival));
            stats[g].queueWaitHist.add(
                static_cast<double>(t - p.arrival));
            notePop(tctx[g], seq, p);
            first_wait = static_cast<std::int64_t>(t - p.arrival);
        }
        recordGrant(tctx[g], t, seq, arqs[g].attemptsOf(seq),
                    first_wait);
        granted_soa[static_cast<size_t>(c)] = static_cast<int>(g);
        granted_seq[static_cast<size_t>(c)] = seq;
        act[static_cast<size_t>(c)] = 1;
        scheds[static_cast<size_t>(c)].update(
            pick, static_cast<double>(payload_bits));
        int contenders = 0;
        for (size_t m = 0; m < mem.size(); ++m) {
            if (!elig[m])
                continue;
            ++contenders;
            if (static_cast<int>(m) != pick)
                ++stats[mem[m]].stalledSlots;
        }
        // Fixed 1/k sharing: a grant contested by k eligible users
        // occupies the medium for k slots in total.
        if (fixed_contention && contenders > 1)
            busy_until[static_cast<size_t>(c)] =
                t + static_cast<std::uint64_t>(contenders);
    };

    // ---- phase 2: batched SINR + draws over the active set -----
    // Worker-local gather buffers (one entry per granted cell) and
    // the worker's PHY context for full-PHY slots.
    struct Scratch {
        std::vector<int> gi;            // soa index
        std::vector<int> cell;          // owning cell
        std::vector<std::int32_t> serving;
        std::vector<const double *> rows;
        std::vector<std::uint64_t> fade_keys;
        std::vector<std::uint64_t> draw_keys;
        std::vector<std::int32_t> rates;
        std::vector<double> sig;
        std::vector<double> sinr_db;
        std::vector<double> pber;
        std::vector<std::uint8_t> ok;
        WorkerPhy phy;

        explicit Scratch(size_t cap)
            : gi(cap), cell(cap), serving(cap), rows(cap),
              fade_keys(cap), draw_keys(cap), rates(cap), sig(cap),
              sinr_db(cap), pber(cap), ok(cap)
        {}
    };

    auto phase_transmit = [&](Scratch &sc, int c_lo, int c_hi,
                              std::uint64_t t) {
        size_t k = 0;
        for (int c = c_lo; c < c_hi; ++c) {
            const int g = granted_soa[static_cast<size_t>(c)];
            if (g < 0)
                continue;
            const size_t gs = static_cast<size_t>(g);
            sc.gi[k] = g;
            sc.cell[k] = c;
            sc.serving[k] = static_cast<std::int32_t>(c);
            sc.rows[k] = rows[gs];
            sc.fade_keys[k] = cache.interfKey[gs];
            sc.draw_keys[k] = cache.drawKey[gs];
            sc.rates[k] = static_cast<std::int32_t>(
                softrate[gs].currentRate());
            const double h2 = fadingPower(g, c, t);
            if (t < cache.h2Slots)
                cache.h2[memoAt(t, c)] = {g, h2};
            sc.sig[k] = serv_gain[gs] * h2;
            ++k;
        }
        if (k == 0)
            return;

        const kernels::Ops &ops = kernels::ops();
        ops.sinrAccumBatch(sc.rows.data(), sc.serving.data(),
                           sc.fade_keys.data(), active[t & 1].data(),
                           cells, t, sc.sig.data(), k, kZeroSinrDb,
                           sc.sinr_db.data());

        if (spec.fidelity.fullPhySlot(t)) {
            // The bit-exact rung, one frame at a time -- identical
            // to the per-user oracle's full-PHY branch, fed by the
            // batch-computed SINR (same bits as the scalar sum).
            for (size_t j = 0; j < k; ++j) {
                const size_t g = static_cast<size_t>(sc.gi[j]);
                const double sinr_db = sc.sinr_db[j];
                const phy::RateIndex rate =
                    static_cast<phy::RateIndex>(sc.rates[j]);
                if (!awgn[g])
                    awgn[g] =
                        std::make_unique<channel::AwgnChannel>(
                            channel::AwgnParams{
                                .snrDb = sinr_db,
                                .seed = cache.awgnSeed[g]});
                else
                    awgn[g]->setSnrDb(sinr_db);
                const std::uint64_t seq =
                    granted_seq[static_cast<size_t>(sc.cell[j])];
                const LinkFrameResult fr =
                    sc.phy.frame(rate, spec.link, *awgn[g], estimator,
                                 cache.payloadSeed[g], seq, t);

                UserStats &st = stats[g];
                ++st.framesSent;
                st.framesOk += fr.ok ? 1 : 0;
                ++st.fullPhyFrames;
                st.rateHist.add(static_cast<double>(rate));
                st.sinrDb.add(sinr_db);
                recordTx(tctx[g], t, seq, fr.ok,
                         static_cast<int>(rate));
                softrate[g].onFeedback(fr.pber);
                arqs[g].onSendResult(seq, fr.ok);
            }
            return;
        }

        // The analytic rung: calibrated PER draws for the whole
        // batch in one kernel call.
        ops.perDrawBatch(flat_view, sc.rates.data(),
                         sc.sinr_db.data(), sc.draw_keys.data(), t,
                         k, sc.ok.data(), sc.pber.data());
        for (size_t j = 0; j < k; ++j) {
            const size_t g = static_cast<size_t>(sc.gi[j]);
            UserStats &st = stats[g];
            ++st.framesSent;
            st.framesOk += sc.ok[j] ? 1 : 0;
            ++st.analyticFrames;
            st.rateHist.add(static_cast<double>(sc.rates[j]));
            st.sinrDb.add(sc.sinr_db[j]);
            recordTx(tctx[g], t,
                     granted_seq[static_cast<size_t>(sc.cell[j])],
                     sc.ok[j] != 0, static_cast<int>(sc.rates[j]));
            softrate[g].onFeedback(sc.pber[j]);
            arqs[g].onSendResult(
                granted_seq[static_cast<size_t>(sc.cell[j])],
                sc.ok[j] != 0);
        }
    };

    // ---- mobility epochs: apply membership events ---------------
    // Runs single-threaded on worker 0 with the team held at a
    // barrier; mirrors the per-user oracle's application exactly
    // (same event list, same sorted-membership positions, same
    // scheduler ops), which is what keeps the two bit-exact under
    // mobility.
    auto member_pos = [&](const std::vector<std::uint32_t> &mem,
                          int uid) {
        return static_cast<int>(
            std::lower_bound(mem.begin(), mem.end(), uid,
                             [&](std::uint32_t a, int b) {
                                 return cache.order[static_cast<
                                            size_t>(a)] < b;
                             }) -
            mem.begin());
    };
    auto remove_member = [&](int c, int uid, double *pf_carry) {
        std::vector<std::uint32_t> &mem =
            members[static_cast<size_t>(c)];
        const int pos = member_pos(mem, uid);
        if (pf_carry)
            *pf_carry =
                scheds[static_cast<size_t>(c)].averageRate(pos);
        scheds[static_cast<size_t>(c)].removeUser(pos);
        mem.erase(mem.begin() + pos);
        st.resizeCell(c);
    };
    auto insert_member = [&](int c, int uid, double pf_carry) {
        std::vector<std::uint32_t> &mem =
            members[static_cast<size_t>(c)];
        const int pos = member_pos(mem, uid);
        scheds[static_cast<size_t>(c)].insertUser(pos, pf_carry);
        mem.insert(mem.begin() + pos,
                   static_cast<std::uint32_t>(
                       cache.soaOf[static_cast<size_t>(uid)]));
        st.resizeCell(c);
    };
    std::vector<MobilityRuntime::Event> mob_events;
    std::vector<mac::Arq::Delivery> mob_deliv;
    auto apply_mobility = [&](std::uint64_t t) {
        mob_events.clear();
        mob->epoch(t, mob_events);
        for (const MobilityRuntime::Event &ev : mob_events) {
            const std::uint32_t i = static_cast<std::uint32_t>(
                cache.soaOf[static_cast<size_t>(ev.user)]);
            int flushed = 0;
            int aborted = 0;
            switch (ev.kind) {
              case MobilityRuntime::Event::Kind::Leave: {
                // Teardown records into the pre-departure shard:
                // queued packets flush (qdrop reason 2), in-flight
                // ARQ frames abort (already-acked heads still
                // deliver in order).
                remove_member(ev.fromCell, ev.user, nullptr);
                flushed = traffic[i].flush(t);
                mob_deliv.clear();
                arqs[i].abortAll(t, mob_deliv);
                for (const auto &d : mob_deliv) {
                    recordDelivery(stats[i], d, payload_bits, t,
                                   tctx[i], post_ho(i));
                    if (d.dropped)
                        ++aborted;
                }
                break;
              }
              case MobilityRuntime::Event::Kind::Join: {
                insert_member(ev.toCell, ev.user, 0.0);
                tctx[i].rebind(ev.toCell, ev.toCell);
                if (trace)
                    traffic[i].bindTrace(trace.get(), ev.toCell,
                                         ev.toCell, ev.user);
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
                tctx[i].rebind(ev.toCell, ev.toCell);
                if (trace)
                    traffic[i].bindTrace(trace.get(), ev.toCell,
                                         ev.toCell, ev.user);
                break;
              }
            }
            recordMobilityEvent(trace.get(), t, ev, flushed,
                                aborted);
        }
        // The epoch rewrote the live gain rows: refresh every
        // user's serving-link gain.
        for (size_t i2 = 0; i2 < nu; ++i2)
            serv_gain[i2] = mob->servingGainLin(cache.order[i2]);
        if (pf)
            refresh_rate_bounds();
    };

    const std::uint64_t start_slot =
        spec.checkpoint.enabled() && spec.checkpoint.resume
            ? loadCheckpoint(spec, cache, st, slots)
            : 0;
    const std::uint64_t ckpt_every =
        spec.checkpoint.enabled() ? spec.checkpoint.everySlots : 0;
    if (pf)
        refresh_rate_bounds();

    const int n =
        LockstepTeam::workerCount(threads, static_cast<std::uint64_t>(cells));

    // The whole slot loop runs inside one LockstepTeam::run():
    // cells are statically partitioned across workers and one
    // barrier per slot separates phase 1 (per-cell scheduling) from
    // phase 2 (transmission). Phase 2 reads other cells' state only
    // through active[] (double-buffered by slot parity) and the gain
    // rows (written only by mobility epochs), so a worker may start
    // slot t + 1 while others finish slot t. The SoA lanes have one
    // writer per phase and publication rides the barrier's
    // release/acquire edges, so nothing is locked -- the CI TSan
    // leg enforces this (docs/ARCHITECTURE.md, "Static determinism
    // guarantees").
    LockstepTeam team(n);
    const int chunk = (cells + n - 1) / n;
    const std::uint64_t epoch_slots = mob ? mob->epochSlots() : 1;
    team.run([&](int w) {
        const int c_lo = std::min(cells, w * chunk);
        const int c_hi = std::min(cells, c_lo + chunk);
        Scratch sc(static_cast<size_t>(c_hi - c_lo));
        for (std::uint64_t t = start_slot; t < slots; ++t) {
            const bool ckpt = ckpt_every != 0 && t > start_slot &&
                              t % ckpt_every == 0;
            const bool epoch = mob && t % epoch_slots == 0;
            if (ckpt || epoch) {
                // Worker 0 serializes or mutates every cell's state:
                // the first barrier waits out every worker's phase 2
                // of slot t - 1, the second releases the team. The
                // snapshot sees the state after slot t - 1, before
                // slot t's mobility epoch.
                team.barrier();
                if (w == 0) {
                    if (ckpt)
                        saveCheckpoint(spec, cache, st, t);
                    if (epoch)
                        apply_mobility(t);
                }
                team.barrier();
            }
            for (int c = c_lo; c < c_hi; ++c)
                phase_schedule(c, t);
            team.barrier();
            phase_transmit(sc, c_lo, c_hi, t);
        }
    });

    // Drain acknowledgements still in flight at the horizon, in
    // user-id order.
    std::vector<mac::Arq::Delivery> tail;
    for (int id = 0; id < num_users; ++id) {
        const size_t i = static_cast<size_t>(
            cache.soaOf[static_cast<size_t>(id)]);
        for (std::uint64_t t = slots;
             t <= slots + spec.ackDelaySlots; ++t) {
            tail.clear();
            arqs[i].tick(t, tail);
            for (const auto &d : tail)
                recordDelivery(stats[i], d, payload_bits, t,
                               tctx[i],
                               post_ho(static_cast<std::uint32_t>(
                                   i)));
        }
        stats[i].retransmissions = arqs[i].retransmissions();
        stats[i].arrivals = traffic[i].arrivals();
        stats[i].queueDrops = traffic[i].drops();
    }

    // Mobility outcome statistics (the final serving cell replaces
    // the drop-time association; the first-handover slot splits the
    // run into the before/after throughput windows).
    for (int id = 0; id < num_users; ++id) {
        UserStats &st = stats[static_cast<size_t>(
            cache.soaOf[static_cast<size_t>(id)])];
        if (mob) {
            st.servingCell = mob->servingCell(id);
            st.handovers = mob->handovers(id);
            st.pingPongs = mob->pingPongs(id);
            st.joins = mob->joins(id);
            st.leaves = mob->leaves(id);
            st.preHoSlots =
                std::min(mob->firstHandoverSlot(id), slots);
        } else {
            st.preHoSlots = slots;
        }
        st.postHoSlots = slots - st.preHoSlots;
    }

    if (trace) {
        trace->finalize(n);
        // End-to-end latency (arrival -> in-order delivery) from
        // the Ack events, in canonical trace order.
        for (const mac::PacketTrace::Entry &e : trace->entries()) {
            if (e.event == mac::PacketEvent::Ack)
                stats[static_cast<size_t>(
                          cache.soaOf[static_cast<size_t>(e.user)])]
                    .e2eLatencyHist.add(static_cast<double>(e.arg1));
        }
        res.trace = trace;
    }

    // Hand the statistics over in user-id order by permuting the
    // SoA-ordered array in place, so the run never holds two
    // users-sized UserStats arrays. dest[i] is the user whose stats
    // sit at position i; each swap puts one of them in place.
    res.users = std::move(stats);
    std::vector<int> dest(cache.order);
    for (size_t i = 0; i < nu; ++i) {
        while (dest[i] != static_cast<int>(i)) {
            const size_t j = static_cast<size_t>(dest[i]);
            std::swap(res.users[i], res.users[j]);
            std::swap(dest[i], dest[j]);
        }
    }

    res.aggregate = UserStats();
    res.aggregate.user = -1;
    for (const UserStats &u : res.users)
        res.aggregate.merge(u);
    return res;
}

} // namespace sim
} // namespace wilis
