/**
 * @file
 * The repository benchmark harness. Four closed batch workloads
 * drive the library through its public entry points only:
 *
 *   link-ber-grid    rates 0-7 x SNR {6,12,18} dB x {awgn, rayleigh},
 *                    1704-bit payloads, BCJR, runGridShard at 4 threads
 *   dense-campaign   dense-urban-10k,reps=4 as 4 wilis_cli worker
 *                    processes x 1 thread, RunReport::load+mergeReports
 *   mobile-pkttrace  urban-mobile,trace=true at 4 threads, trace saved
 *   cell-auto        the cell-auto preset (auto fidelity rung, table
 *                    built at construction) at 4 threads
 *
 * Every timed operation runs cold in a freshly forked process that
 * builds its own Testbench/NetworkSim (or spawns fresh campaign
 * workers), so each one pays what a CLI or campaign invocation pays.
 * Every operation ends in a digest of its simulated statistics.
 *
 * --trace 0 repeats cold timed runs for --seconds and reports the
 * end-to-end metrics as medians. --trace 1 runs the layer probes of
 * all four workloads (the per-layer metric set is one set shared by
 * every traced run): a traced replay with spans around the calls
 * into each layer, checked against an untraced run of the same
 * inputs, plus the ratio probes and their bases. Spans are kept in
 * memory and written to <workdir>/spans.jsonl after the run.
 *
 * Usage:
 *   wilis_perfbench --workload W --seed N --seconds S --trace 0|1
 *       --workdir DIR --calibration FILE --pinned FILE
 *   wilis_perfbench --list-metrics
 * The last stdout line is the result JSON.
 */

#include <fcntl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/cpu_features.hh"
#include "common/frame_arena.hh"
#include "common/kernels.hh"
#include "mac/packet_trace.hh"
#include "sim/campaign.hh"
#include "sim/network_sim.hh"
#include "sim/scenario.hh"
#include "sim/scenario_grid.hh"
#include "sim/testbench.hh"
#include "softphy/calibration_table.hh"
#include "support.hh"

using namespace wilis;
using perfbench::Digest;
using perfbench::median;
using perfbench::nowS;
using perfbench::Record;
using perfbench::runChild;
using perfbench::Tracer;

namespace {

// ------------------------------------------------------------ sizes
// Fixed per workload: the pinned digests (pinned_digests.txt, seed
// kDefaultSeed) are digests of exactly these sizes.

constexpr std::uint64_t kDefaultSeed = 1;
constexpr int kThreads = 4;
constexpr int kMinIters = 3;

constexpr size_t kGridPayloadBits = 1704;
constexpr std::uint64_t kGridPackets = 64;
/** Packets per 12 dB cell in the scalar-vs-default kernel replay. */
constexpr std::uint64_t kKernelPackets = 6;

constexpr int kDenseReps = 4;
constexpr std::uint64_t kDenseSlots = 200;
constexpr int kFixedRepeats = 3;

constexpr std::uint64_t kMobileSlots = 30000;

constexpr std::uint64_t kAutoSlots = 4000;

const char *const kWorkloads[] = {"link-ber-grid", "dense-campaign",
                                  "mobile-pkttrace", "cell-auto"};

// ---------------------------------------------------------- metrics

struct MetricDef {
    std::string name;
    std::string unit;
    /** Per-layer metrics whose ratio or difference this one is. */
    std::vector<std::string> bases;
};

const std::vector<MetricDef> &
endToEndDefs()
{
    static const std::vector<MetricDef> defs = {
        {"link_mbps", "Mb/s", {}},
        {"uslots_per_s", "1/s", {}},
        {"setup_s", "s", {}},
        {"peak_rss_mb", "MB", {}},
    };
    return defs;
}

/** The exact mac and mobility counts of a network run. */
const char *const kCountKeys[] = {
    "mac.grants",         "mac.stalled_slots",  "mac.queue_drops",
    "mobility.handovers", "mobility.pingpongs", "mobility.joins",
    "mobility.leaves"};

/** mac and mobility counts, one family per network workload. */
void
addCountFamily(std::vector<MetricDef> &d, const std::string &wl)
{
    for (const char *m : kCountKeys)
        d.push_back({wl + "." + m, "count", {}});
    d.push_back({wl + ".mac.delivered_per_grant",
                 "ratio",
                 {wl + ".mac.grants"}});
    d.push_back({wl + ".mac.stalled_per_grant",
                 "ratio",
                 {wl + ".mac.stalled_slots", wl + ".mac.grants"}});
}

const std::vector<MetricDef> &
perLayerDefs()
{
    static const std::vector<MetricDef> defs = [] {
        std::vector<MetricDef> d;
        // link-ber-grid: phy / channel / decode (decode runs inside
        // rx().demodulate), common/kernels, sim/scenario_grid.
        d.push_back({"phy.tx_s", "s", {}});
        d.push_back({"channel.awgn.apply_s", "s", {}});
        d.push_back({"channel.rayleigh.apply_s", "s", {}});
        d.push_back({"phy.rx.awgn_s", "s", {}});
        d.push_back({"phy.rx.rayleigh_s", "s", {}});
        for (int r = 0; r < 8; ++r)
            d.push_back({"phy.r" + std::to_string(r) + ".mbps",
                         "Mb/s",
                         {}});
        d.push_back({"phy.frames", "count", {}});
        d.push_back({"phy.bit_errors", "count", {}});
        d.push_back({"kernels.scalar_s", "s", {}});
        d.push_back({"kernels.default_s", "s", {}});
        d.push_back({"kernels.simd_speedup",
                     "ratio",
                     {"kernels.scalar_s", "kernels.default_s"}});
        d.push_back({"scenario_grid.t1_s", "s", {}});
        d.push_back({"scenario_grid.t4_s", "s", {}});
        d.push_back({"scenario_grid.pareff",
                     "ratio",
                     {"scenario_grid.t1_s", "scenario_grid.t4_s"}});
        d.push_back({"grid.traced_t1_s", "s", {}});
        d.push_back({"grid.trace_overhead_frac",
                     "ratio",
                     {"grid.traced_t1_s", "scenario_grid.t1_s"}});

        // dense-campaign: softphy load, multi-cell construction and
        // cold/warm runs, campaign fan-out and merge.
        d.push_back({"softphy.calib_load_s", "s", {}});
        d.push_back({"sim.construct_s", "s", {}});
        d.push_back({"dense.sim.run_cold_s", "s", {}});
        d.push_back({"dense.sim.run_warm_s", "s", {}});
        d.push_back({"dense.sim.memo_fill_s",
                     "s",
                     {"dense.sim.run_cold_s", "dense.sim.run_warm_s"}});
        d.push_back({"campaign.fixed_s", "s", {}});
        d.push_back({"campaign.report_io_s", "s", {}});
        d.push_back({"campaign.merge_s", "s", {}});
        d.push_back({"campaign.unit_sum_s", "s", {}});
        d.push_back({"campaign.wall_s", "s", {}});
        d.push_back({"campaign.pareff",
                     "ratio",
                     {"campaign.unit_sum_s", "campaign.wall_s"}});
        d.push_back({"campaign.traced_wall_s", "s", {}});
        d.push_back({"dense.trace_overhead_frac",
                     "ratio",
                     {"campaign.traced_wall_s", "campaign.wall_s"}});
        addCountFamily(d, "dense");

        // mobile-pkttrace: lockstep barriers, packet trace, cold vs
        // warm memo fill.
        d.push_back({"lockstep.uslots_per_s_t1", "1/s", {}});
        d.push_back({"lockstep.uslots_per_s_t4", "1/s", {}});
        d.push_back({"lockstep.pareff_t4",
                     "ratio",
                     {"lockstep.uslots_per_s_t4",
                      "lockstep.uslots_per_s_t1"}});
        d.push_back({"packet_trace.on_s", "s", {}});
        d.push_back({"packet_trace.off_s", "s", {}});
        d.push_back({"packet_trace.cost_frac",
                     "ratio",
                     {"packet_trace.on_s", "packet_trace.off_s"}});
        d.push_back({"packet_trace.peak_rss_on_mb", "MB", {}});
        d.push_back({"packet_trace.peak_rss_off_mb", "MB", {}});
        d.push_back({"packet_trace.save_s", "s", {}});
        d.push_back({"packet_trace.events", "count", {}});
        d.push_back({"mobile.sim.run_cold_s", "s", {}});
        d.push_back({"mobile.sim.run_warm_s", "s", {}});
        d.push_back({"mobile.sim.memo_fill_s",
                     "s",
                     {"mobile.sim.run_cold_s",
                      "mobile.sim.run_warm_s"}});
        d.push_back({"mobile.traced_s", "s", {}});
        d.push_back({"mobile.trace_overhead_frac",
                     "ratio",
                     {"mobile.traced_s", "packet_trace.on_s"}});
        addCountFamily(d, "mobile");

        // cell-auto: calibration build, link_fidelity rungs, the
        // single-cell engine's thread pool.
        d.push_back({"softphy.calib_build_s", "s", {}});
        d.push_back({"link_fidelity.auto_run_s", "s", {}});
        d.push_back({"link_fidelity.analytic_run_s", "s", {}});
        d.push_back({"link_fidelity.full_phy_s",
                     "s",
                     {"link_fidelity.auto_run_s",
                      "link_fidelity.analytic_run_s"}});
        d.push_back({"link_fidelity.full_frames", "count", {}});
        d.push_back({"link_fidelity.analytic_frames", "count", {}});
        d.push_back({"thread_pool.t1_s", "s", {}});
        d.push_back({"thread_pool.t4_s", "s", {}});
        d.push_back({"thread_pool.pareff_t4",
                     "ratio",
                     {"thread_pool.t1_s", "thread_pool.t4_s"}});
        d.push_back({"auto.traced_s", "s", {}});
        d.push_back({"auto.trace_overhead_frac",
                     "ratio",
                     {"auto.traced_s", "link_fidelity.auto_run_s"}});
        addCountFamily(d, "auto");
        return d;
    }();
    return defs;
}

// ---------------------------------------------------------- options

struct Options {
    std::string workload;
    std::uint64_t seed = kDefaultSeed;
    double seconds = 10.0;
    int trace = 0;
    std::string workdir;
    std::string calibration;
    std::string pinned;
    /** wilis_cli, next to this binary. */
    std::string worker;
};

/** Counts operations and the checks they fail. */
struct Tally {
    int attempted = 0;
    int failed = 0;

    /** Count one operation; false (and a stderr line) if it failed. */
    bool
    op(bool ok, const std::string &what)
    {
        ++attempted;
        if (!ok) {
            ++failed;
            std::fprintf(stderr, "perfbench: FAILED %s\n",
                         what.c_str());
        }
        return ok;
    }
};

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream s;
    s << in.rdbuf();
    return s.str();
}

std::string
pinnedDigest(const Options &o, const std::string &workload)
{
    std::istringstream in(readFile(o.pinned));
    std::string wl, digest;
    while (in >> wl >> digest)
        if (wl == workload)
            return digest;
    return "";
}

/**
 * The default-seed check: a timed run's digest must equal the one
 * pinned for its workload. Other seeds have nothing pinned.
 */
bool
matchesPinned(const Options &o, const std::string &workload,
              const std::string &digest)
{
    return o.seed != kDefaultSeed ||
           digest == pinnedDigest(o, workload);
}

// ------------------------------------------------------- digests

sim::UnitReport
unitOf(const sim::NetworkResult &res, int unit)
{
    sim::UnitReport u;
    u.unit = unit;
    u.seed = res.spec.seed;
    u.cells = res.cells;
    u.users = static_cast<int>(res.users.size());
    u.stats = res.aggregate;
    return u;
}

/**
 * Digest of a report's simulated content: every unit's counters,
 * accumulators and histograms (the exact %.17g JSON form), without
 * the config string (which names the checkout's calibration path).
 */
std::string
reportDigest(sim::RunReport rep)
{
    rep.config.clear();
    Digest d;
    d.text(rep.toJsonText());
    return d.hex();
}

std::string
unitDigest(const sim::UnitReport &u)
{
    sim::RunReport r;
    r.kind = "network";
    r.unitsTotal = 1;
    r.units = {u};
    return reportDigest(r);
}

/** A network run's digest: aggregate statistics + trace bytes. */
std::string
runDigest(const sim::NetworkResult &res, const std::string &trace)
{
    Digest d;
    d.text(unitDigest(unitOf(res, 0)));
    d.text(trace);
    return d.hex();
}

void
putCounts(Record &r, const sim::UserStats &s)
{
    r.values["mac.grants"] = static_cast<double>(s.framesSent);
    r.values["mac.stalled_slots"] = static_cast<double>(s.stalledSlots);
    r.values["mac.queue_drops"] = static_cast<double>(s.queueDrops);
    r.values["mac.delivered"] = static_cast<double>(s.delivered);
    r.values["mobility.handovers"] = static_cast<double>(s.handovers);
    r.values["mobility.pingpongs"] = static_cast<double>(s.pingPongs);
    r.values["mobility.joins"] = static_cast<double>(s.joins);
    r.values["mobility.leaves"] = static_cast<double>(s.leaves);
    r.values["goodput_bits"] = static_cast<double>(s.goodputBits);
}

void
copyCounts(std::map<std::string, double> &out, const Record &r,
           const std::string &wl)
{
    for (const char *m : kCountKeys)
        out[wl + "." + m] = r.at(m);
    const double grants = r.at("mac.grants");
    out[wl + ".mac.delivered_per_grant"] =
        grants > 0 ? r.at("mac.delivered") / grants : 0.0;
    out[wl + ".mac.stalled_per_grant"] =
        grants > 0 ? r.at("mac.stalled_slots") / grants : 0.0;
}

// ------------------------------------------------- link-ber-grid

sim::ScenarioGrid
makeGrid(std::uint64_t seed)
{
    sim::ScenarioGrid g;
    g.base.payloadBits = kGridPayloadBits;
    g.base.rx.decoder = "bcjr";
    g.rates = {0, 1, 2, 3, 4, 5, 6, 7};
    g.channels = {"awgn", "rayleigh"};
    g.snrsDb = {6.0, 12.0, 18.0};
    g.seed = seed;
    return g;
}

/** runGridShard at @p threads; setup = every cell's Testbench. */
void
gridTimed(Record &r, const Options &o, int threads)
{
    const double t0 = nowS();
    const sim::ScenarioGrid grid = makeGrid(o.seed);
    for (size_t c = 0; c < grid.cellCount(); ++c)
        sim::Testbench tb(grid.cell(c));
    const double t1 = nowS();
    sim::GridRunRequest req;
    req.grid = grid;
    req.packetsPerCell = kGridPackets;
    req.threads = threads;
    const sim::RunReport rep = sim::runGridShard(req);
    const double t2 = nowS();

    std::uint64_t bits = 0, packets = 0;
    for (const sim::UnitReport &u : rep.units) {
        bits += u.bits;
        packets += u.packets;
    }
    r.values["setup_s"] = t1 - t0;
    r.values["run_s"] = t2 - t1;
    r.values["payload_bits"] = static_cast<double>(bits);
    r.values["uslots"] = static_cast<double>(packets);
    r.digests["run"] = reportDigest(rep);
}

/**
 * The grid's cells replayed at 1 thread through the layer calls
 * Testbench::runFrame makes, with a span around each.
 */
void
gridTraced(Record &r, const Options &o)
{
    Tracer &tr = r.tracer;
    const sim::ScenarioGrid grid = makeGrid(o.seed);
    // The report runGridShard would return, rebuilt from the replay.
    sim::RunReport rep;
    rep.kind = "grid";
    rep.packetsPerCell = kGridPackets;
    rep.unitsTotal = static_cast<int>(grid.cellCount());
    std::uint64_t frames = 0, bit_errors = 0;
    const double t0 = nowS();
    for (size_t c = 0; c < grid.cellCount(); ++c) {
        const sim::ScenarioSpec spec = grid.cell(c);
        const std::string chan = "channel." + spec.channel + ".apply";
        const std::string rx = "phy.rx." + spec.channel + ".demodulate";
        sim::UnitReport u;
        u.unit = static_cast<int>(c);
        u.name = spec.name;
        tr.span("grid.cell.r" + std::to_string(spec.rate), [&] {
            auto tb = tr.span("sim.testbench.construct", [&] {
                return std::make_unique<sim::Testbench>(spec);
            });
            FrameArena arena;
            BitVec payload(spec.payloadBits);
            for (std::uint64_t p = 0; p < kGridPackets; ++p) {
                arena.reset();
                FrameContext ctx(arena);
                tb->makePayloadInto(BitSpan(payload), p);
                const BitView pv(payload);
                SampleSpan s = tr.span("phy.tx.modulate", [&] {
                    return tb->tx().modulate(pv, ctx);
                });
                tr.span(chan, [&] { tb->channel().apply(s, p); });
                const phy::RxFrame f = tr.span(rx, [&] {
                    return tb->rx().demodulate(s, pv.size(),
                                               &tb->channel(), p, ctx);
                });
                const std::uint64_t errs = f.bitErrors(pv);
                u.packets += 1;
                u.packetErrors += errs ? 1 : 0;
                u.bits += pv.size();
                u.bitErrors += errs;
            }
        });
        frames += u.packets;
        bit_errors += u.bitErrors;
        rep.units.push_back(u);
    }
    r.values["traced_s"] = nowS() - t0;
    r.values["frames"] = static_cast<double>(frames);
    r.values["bit_errors"] = static_cast<double>(bit_errors);
    r.digests["run"] = reportDigest(rep);
}

/**
 * The 12 dB cells run untraced under the default kernel backend,
 * then under the scalar reference; both must decode identically.
 */
void
gridKernels(Record &r, const Options &o)
{
    const sim::ScenarioGrid grid = makeGrid(o.seed);
    const kernels::Backend native = kernels::activeBackend();
    const auto pass = [&](kernels::Backend b, const char *key) {
        kernels::setBackend(b);
        Digest d;
        double busy = 0.0;
        for (size_t c = 0; c < grid.cellCount(); ++c) {
            const sim::ScenarioSpec spec = grid.cell(c);
            if (spec.snrDb() != 12.0)
                continue;
            sim::Testbench tb(spec);
            const double t0 = nowS();
            for (std::uint64_t p = 0; p < kKernelPackets; ++p)
                d.u64(tb.runFrame(spec.payloadBits, p).bitErrors);
            busy += nowS() - t0;
        }
        r.values[key] = busy;
        r.digests[key] = d.hex();
    };
    pass(native, "default");
    pass(kernels::Backend::Scalar, "scalar");
    kernels::setBackend(native);
}

void
gridProbes(const Options &o, Tally &t,
           std::map<std::string, double> &out, Tracer &spans,
           std::string &timed_digest)
{
    const Record t4 = runChild([&](Record &r) { gridTimed(r, o, 4); });
    const Record t1 = runChild([&](Record &r) { gridTimed(r, o, 1); });
    const Record tr = runChild([&](Record &r) { gridTraced(r, o); });
    const Record kr = runChild([&](Record &r) { gridKernels(r, o); });
    timed_digest = t4.digests.count("run") ? t4.digests.at("run") : "";
    t.op(t4.ok && matchesPinned(o, "link-ber-grid", timed_digest),
         "link-ber-grid: timed run / pinned digest");
    t.op(t1.ok && t1.digests.at("run") == timed_digest,
         "link-ber-grid: 1-thread run differs from 4-thread run");
    t.op(tr.ok && tr.digests.at("run") == timed_digest,
         "link-ber-grid: traced replay differs from timed run");
    t.op(kr.ok && kr.digests.at("scalar") == kr.digests.at("default"),
         "link-ber-grid: scalar backend differs from default");
    spans.append(tr.tracer);

    const Tracer &x = tr.tracer;
    out["phy.tx_s"] = x.total("phy.tx.modulate");
    out["channel.awgn.apply_s"] = x.total("channel.awgn.apply");
    out["channel.rayleigh.apply_s"] = x.total("channel.rayleigh.apply");
    out["phy.rx.awgn_s"] = x.total("phy.rx.awgn.demodulate");
    out["phy.rx.rayleigh_s"] = x.total("phy.rx.rayleigh.demodulate");
    const sim::ScenarioGrid grid = makeGrid(o.seed);
    const double cells_per_rate = static_cast<double>(
        grid.cellCount() / grid.rates.size());
    const double rate_mb =
        cells_per_rate * kGridPackets * kGridPayloadBits / 1e6;
    for (int k = 0; k < 8; ++k) {
        const std::string r = std::to_string(k);
        const double s = x.total("grid.cell.r" + r);
        out["phy.r" + r + ".mbps"] = s > 0 ? rate_mb / s : 0.0;
    }
    out["phy.frames"] = tr.at("frames");
    out["phy.bit_errors"] = tr.at("bit_errors");
    out["kernels.scalar_s"] = kr.at("scalar");
    out["kernels.default_s"] = kr.at("default");
    out["kernels.simd_speedup"] =
        kr.at("default") > 0 ? kr.at("scalar") / kr.at("default") : 0.0;
    out["scenario_grid.t1_s"] = t1.at("run_s");
    out["scenario_grid.t4_s"] = t4.at("run_s");
    out["scenario_grid.pareff"] =
        t4.at("run_s") > 0 ? t1.at("run_s") / (4.0 * t4.at("run_s"))
                           : 0.0;
    out["grid.traced_t1_s"] = tr.at("traced_s");
    out["grid.trace_overhead_frac"] =
        t1.at("run_s") > 0 ? tr.at("traced_s") / t1.at("run_s") - 1.0
                           : 0.0;
}

// ------------------------------------------------ network specs

std::string
denseArg(const Options &o)
{
    return "dense-urban-10k,reps=" + std::to_string(kDenseReps) +
           ",net_seed=" + std::to_string(o.seed) +
           ",calibration_file=" + o.calibration;
}

std::string
mobileArg(const Options &o, bool trace = true)
{
    return std::string("urban-mobile,trace=") +
           (trace ? "true" : "false") +
           ",net_seed=" + std::to_string(o.seed) +
           ",calibration_file=" + o.calibration;
}

/** cell-auto builds its table at construction: no calibration file. */
std::string
autoArg(const Options &o)
{
    return "cell-auto,net_seed=" + std::to_string(o.seed);
}

/**
 * One in-process network run as a CLI invocation makes it: parse,
 * construct (calibration load or build, topology), run, and save
 * the packet trace when the spec records one.
 */
void
networkTimed(Record &r, const Options &o, const std::string &arg,
             std::uint64_t slots, int threads)
{
    const double t0 = nowS();
    const sim::NetworkSpec spec = sim::parseNetworkSpecArg(arg);
    sim::NetworkSim sim(spec);
    const double t1 = nowS();
    const sim::NetworkResult res = sim.run(slots, threads);
    const std::string path = o.workdir + "/packet_trace.txt";
    if (res.trace)
        res.trace->save(path);
    const double t2 = nowS();
    // Read back for the digest, then unlink so no iteration's dirty
    // pages are still being written back under the next one.
    std::string trace;
    if (res.trace) {
        trace = readFile(path);
        std::remove(path.c_str());
    }
    r.values["setup_s"] = t1 - t0;
    r.values["run_s"] = t2 - t1;
    r.values["uslots"] = static_cast<double>(res.users.size()) *
                         static_cast<double>(slots);
    putCounts(r, res.aggregate);
    r.digests["run"] = runDigest(res, trace);
    // The statistics without the one histogram only a traced run
    // fills: equal for the same spec with trace on and off.
    sim::UnitReport sans = unitOf(res, 0);
    sans.stats.e2eLatencyHist = Histogram(sim::UserStats::kWaitBins, 2.0);
    r.digests["sans_trace"] = unitDigest(sans);
}

// ------------------------------------------------ dense-campaign

/**
 * The campaign fan-out: one `wilis_cli --network ... --shard i/N`
 * worker process per shard, 1 thread each, then RunReport::load of
 * every shard report and mergeReports. This is the wilis_campaign
 * binary's sequence, with the shard reports under the work
 * directory (wilis_campaign keeps them in a fixed /tmp dir).
 * Returns false if a worker fails.
 */
bool
runCampaign(Record &r, const Options &o, std::uint64_t slots,
            Tracer *tr)
{
    const sim::NetworkSpec spec = sim::parseNetworkSpecArg(denseArg(o));
    const std::string canonical = spec.toConfig().toString();
    const auto maybe_span = [&](const char *name, auto &&fn) {
        if (tr)
            tr->span(name, fn);
        else
            fn();
    };

    const double t0 = nowS();
    std::vector<std::string> files;
    bool ok = true;
    double worker_rss = 0.0;
    maybe_span("sim.campaign.workers", [&] {
        std::vector<pid_t> pids;
        for (int i = 0; i < kDenseReps; ++i) {
            const std::string tag = std::to_string(i);
            files.push_back(o.workdir + "/shard_" + tag + ".json");
            std::remove(files.back().c_str());
            const std::vector<std::string> args = {
                o.worker, "--network", canonical, "--slots",
                std::to_string(slots), "--threads", "1", "--shard",
                tag + "/" + std::to_string(kDenseReps), "--report",
                files.back()};
            const std::string log = o.workdir + "/worker_" + tag + ".log";
            const pid_t pid = fork();
            if (pid == 0) {
                const int fd =
                    open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
                if (fd >= 0) {
                    dup2(fd, 1);
                    dup2(fd, 2);
                }
                std::vector<char *> argv;
                for (const std::string &a : args)
                    argv.push_back(const_cast<char *>(a.c_str()));
                argv.push_back(nullptr);
                execv(o.worker.c_str(), argv.data());
                _exit(127);
            }
            if (pid < 0)
                ok = false;
            else
                pids.push_back(pid);
        }
        for (const pid_t pid : pids) {
            int status = 0;
            struct rusage ru {};
            while (wait4(pid, &status, 0, &ru) < 0 && errno == EINTR) {
            }
            ok = ok && WIFEXITED(status) && WEXITSTATUS(status) == 0;
            worker_rss += perfbench::rssMb(ru);
        }
    });
    if (!ok)
        return false;

    std::vector<sim::RunReport> shards;
    maybe_span("sim.campaign.report_load", [&] {
        for (const std::string &f : files)
            shards.push_back(sim::RunReport::load(f));
    });
    const double t_load = nowS();
    sim::RunReport merged;
    maybe_span("sim.campaign.merge",
               [&] { merged = sim::mergeReports(shards); });
    const double t_end = nowS();

    r.values["wall_s"] = t_end - t0;
    r.values["merge_s"] = t_end - t_load;
    r.values["child_rss_mb"] = worker_rss;
    r.values["uslots"] = static_cast<double>(merged.aggregate.users) *
                         static_cast<double>(slots) *
                         static_cast<double>(merged.unitsTotal);
    putCounts(r, merged.aggregate.stats);
    r.digests["run"] = reportDigest(merged);
    for (const sim::UnitReport &u : merged.units)
        r.digests["unit" + std::to_string(u.unit)] = unitDigest(u);
    return true;
}

/** Per-worker setup: parse + NetworkSim (calibration load, topology). */
void
denseSetup(Record &r, const Options &o)
{
    const double t0 = nowS();
    const sim::NetworkSpec spec = sim::parseNetworkSpecArg(denseArg(o));
    sim::NetworkSim sim(spec);
    r.values["setup_s"] = nowS() - t0;
}

void
campaignOrExit(Record &r, const Options &o, std::uint64_t slots,
               Tracer *tr)
{
    if (!runCampaign(r, o, slots, tr))
        _exit(5);
}

/**
 * Rep 0 in-process at 1 thread, as a worker computes it, split into
 * calibration load, construction, a cold run and a warm rerun.
 */
void
denseDetail(Record &r, const Options &o)
{
    Tracer &tr = r.tracer;
    const sim::NetworkSpec spec = sim::parseNetworkSpecArg(denseArg(o));
    std::vector<double> loads;
    std::shared_ptr<const softphy::CalibrationTable> table;
    for (int i = 0; i < 3; ++i) {
        const double t0 = nowS();
        table = tr.span("softphy.calibration_table.load", [&] {
            return std::make_shared<const softphy::CalibrationTable>(
                softphy::CalibrationTable::load(spec.calibrationFile));
        });
        loads.push_back(nowS() - t0);
    }
    r.values["calib_load_s"] = median(loads);
    auto sim = tr.span("sim.network_sim.construct", [&] {
        return std::make_unique<sim::NetworkSim>(spec, table);
    });
    r.values["construct_s"] = tr.total("sim.network_sim.construct");
    const sim::NetworkResult cold = tr.span(
        "sim.network_sim.run_cold", [&] { return sim->run(kDenseSlots, 1); });
    const sim::NetworkResult warm = tr.span(
        "sim.network_sim.run_warm", [&] { return sim->run(kDenseSlots, 1); });
    r.values["cold_s"] = tr.total("sim.network_sim.run_cold");
    r.values["warm_s"] = tr.total("sim.network_sim.run_warm");
    r.digests["cold"] = unitDigest(unitOf(cold, 0));
    r.digests["warm"] = unitDigest(unitOf(warm, 0));
}

void
denseProbes(const Options &o, Tally &t,
            std::map<std::string, double> &out, Tracer &spans,
            std::string &timed_digest)
{
    const Record timed = runChild(
        [&](Record &r) { campaignOrExit(r, o, kDenseSlots, nullptr); });
    const Record traced = runChild([&](Record &r) {
        campaignOrExit(r, o, kDenseSlots, &r.tracer);
    });
    timed_digest = timed.ok ? timed.digests.at("run") : "";
    t.op(timed.ok && matchesPinned(o, "dense-campaign", timed_digest),
         "dense-campaign: timed run / pinned digest");
    t.op(traced.ok && traced.digests.at("run") == timed_digest,
         "dense-campaign: traced replay differs from timed run");

    // Every unit cold in its own process, as runCampaignShard runs it
    // in a worker: calibration load, construction, run.
    double unit_sum = 0.0;
    for (int u = 0; u < kDenseReps; ++u) {
        const Record ur = runChild([&](Record &r) {
            sim::RunRequest req;
            req.spec = sim::parseNetworkSpecArg(denseArg(o));
            req.slots = kDenseSlots;
            req.threads = 1;
            req.shardIndex = u;
            req.shardCount = kDenseReps;
            const double t0 = nowS();
            const sim::RunReport rep = sim::runCampaignShard(req);
            r.values["unit_s"] = nowS() - t0;
            r.digests["unit"] = unitDigest(rep.units.at(0));
        });
        const std::string key = "unit" + std::to_string(u);
        t.op(ur.ok && timed.ok && timed.digests.count(key) &&
                 ur.digests.at("unit") == timed.digests.at(key),
             "dense-campaign: in-process unit " + std::to_string(u) +
                 " differs from its worker");
        unit_sum += ur.at("unit_s");
    }

    const Record detail = runChild([&](Record &r) { denseDetail(r, o); });
    t.op(detail.ok && timed.ok &&
             detail.digests.at("cold") == timed.digests.at("unit0") &&
             detail.digests.at("warm") == timed.digests.at("unit0"),
         "dense-campaign: cold/warm rerun differs from unit 0");
    spans.append(detail.tracer);
    spans.append(traced.tracer);

    std::vector<double> fixed;
    for (int i = 0; i < kFixedRepeats; ++i) {
        const Record f =
            runChild([&](Record &r) { campaignOrExit(r, o, 1, nullptr); });
        t.op(f.ok, "dense-campaign: 1-slot campaign");
        fixed.push_back(f.at("wall_s"));
    }

    const Tracer &x = traced.tracer;
    out["softphy.calib_load_s"] = detail.at("calib_load_s");
    out["sim.construct_s"] = detail.at("construct_s");
    out["dense.sim.run_cold_s"] = detail.at("cold_s");
    out["dense.sim.run_warm_s"] = detail.at("warm_s");
    out["dense.sim.memo_fill_s"] = detail.at("cold_s") - detail.at("warm_s");
    out["campaign.fixed_s"] = median(fixed);
    out["campaign.report_io_s"] = x.total("sim.campaign.report_load");
    out["campaign.merge_s"] = x.total("sim.campaign.merge");
    out["campaign.unit_sum_s"] = unit_sum;
    out["campaign.wall_s"] = timed.at("wall_s");
    out["campaign.pareff"] =
        timed.at("wall_s") > 0
            ? unit_sum / (kDenseReps * timed.at("wall_s"))
            : 0.0;
    out["campaign.traced_wall_s"] = traced.at("wall_s");
    out["dense.trace_overhead_frac"] =
        timed.at("wall_s") > 0
            ? traced.at("wall_s") / timed.at("wall_s") - 1.0
            : 0.0;
    copyCounts(out, timed, "dense");
}

// ----------------------------------------------- mobile-pkttrace

/** The mobile run with spans, then a warm rerun on the same sim. */
void
mobileTraced(Record &r, const Options &o)
{
    Tracer &tr = r.tracer;
    const double t0 = nowS();
    const sim::NetworkSpec spec = tr.span("sim.spec_parse", [&] {
        return sim::parseNetworkSpecArg(mobileArg(o));
    });
    auto sim = tr.span("sim.network_sim.construct", [&] {
        return std::make_unique<sim::NetworkSim>(spec);
    });
    const sim::NetworkResult cold = tr.span(
        "sim.network_sim.run_cold",
        [&] { return sim->run(kMobileSlots, kThreads); });
    const std::string path = o.workdir + "/packet_trace.txt";
    tr.span("mac.packet_trace.save", [&] { cold.trace->save(path); });
    r.values["traced_s"] = nowS() - t0;
    const std::string trace = readFile(path);
    std::remove(path.c_str());
    r.digests["cold"] = runDigest(cold, trace);
    r.values["events"] = static_cast<double>(cold.trace->entries().size());

    const sim::NetworkResult warm = tr.span(
        "sim.network_sim.run_warm",
        [&] { return sim->run(kMobileSlots, kThreads); });
    r.digests["warm"] = runDigest(warm, warm.trace->toText());
}

void
mobileProbes(const Options &o, Tally &t,
             std::map<std::string, double> &out, Tracer &spans,
             std::string &timed_digest)
{
    const Record timed = runChild([&](Record &r) {
        networkTimed(r, o, mobileArg(o), kMobileSlots, kThreads);
    });
    const Record traced =
        runChild([&](Record &r) { mobileTraced(r, o); });
    const Record t1 = runChild([&](Record &r) {
        networkTimed(r, o, mobileArg(o), kMobileSlots, 1);
    });
    const Record off = runChild([&](Record &r) {
        networkTimed(r, o, mobileArg(o, false), kMobileSlots, kThreads);
    });
    timed_digest = timed.ok ? timed.digests.at("run") : "";
    t.op(timed.ok && matchesPinned(o, "mobile-pkttrace", timed_digest),
         "mobile-pkttrace: timed run / pinned digest");
    t.op(traced.ok && traced.digests.at("cold") == timed_digest &&
             traced.digests.at("warm") == timed_digest,
         "mobile-pkttrace: traced replay differs from timed run");
    t.op(t1.ok && t1.digests.at("run") == timed_digest,
         "mobile-pkttrace: 1-thread run differs from 4-thread run");
    t.op(off.ok && timed.ok &&
             off.digests.at("sans_trace") ==
                 timed.digests.at("sans_trace"),
         "mobile-pkttrace: trace-off run differs from trace-on run");
    spans.append(traced.tracer);

    const Tracer &x = traced.tracer;
    const double on_s = timed.at("run_s");
    out["lockstep.uslots_per_s_t1"] =
        t1.at("run_s") > 0 ? t1.at("uslots") / t1.at("run_s") : 0.0;
    out["lockstep.uslots_per_s_t4"] =
        on_s > 0 ? timed.at("uslots") / on_s : 0.0;
    out["lockstep.pareff_t4"] =
        on_s > 0 ? t1.at("run_s") / (4.0 * on_s) : 0.0;
    out["packet_trace.on_s"] = on_s;
    out["packet_trace.off_s"] = off.at("run_s");
    out["packet_trace.cost_frac"] =
        off.at("run_s") > 0 ? on_s / off.at("run_s") - 1.0 : 0.0;
    out["packet_trace.peak_rss_on_mb"] = t1.peakRssMb;
    out["packet_trace.peak_rss_off_mb"] = off.peakRssMb;
    out["packet_trace.save_s"] = x.total("mac.packet_trace.save");
    out["packet_trace.events"] = traced.at("events");
    out["mobile.sim.run_cold_s"] = x.total("sim.network_sim.run_cold");
    out["mobile.sim.run_warm_s"] = x.total("sim.network_sim.run_warm");
    out["mobile.sim.memo_fill_s"] = out["mobile.sim.run_cold_s"] -
                                    out["mobile.sim.run_warm_s"];
    out["mobile.traced_s"] = traced.at("traced_s");
    const double untraced = timed.at("setup_s") + on_s;
    out["mobile.trace_overhead_frac"] =
        untraced > 0 ? traced.at("traced_s") / untraced - 1.0 : 0.0;
    copyCounts(out, timed, "mobile");
}

// ----------------------------------------------------- cell-auto

/** The auto run with spans: parse, build, construct, run. */
void
autoTraced(Record &r, const Options &o)
{
    Tracer &tr = r.tracer;
    const double t0 = nowS();
    const sim::NetworkSpec spec = tr.span("sim.spec_parse", [&] {
        return sim::parseNetworkSpecArg(autoArg(o));
    });
    auto table = tr.span("softphy.calibration_table.build", [&] {
        return std::make_shared<const softphy::CalibrationTable>(
            softphy::CalibrationTable::build(
                sim::NetworkSim::calibrationBuildSpec(spec)));
    });
    auto sim = tr.span("sim.network_sim.construct", [&] {
        return std::make_unique<sim::NetworkSim>(spec, table);
    });
    const sim::NetworkResult res = tr.span(
        "sim.network_sim.run", [&] { return sim->run(kAutoSlots, kThreads); });
    r.values["traced_s"] = nowS() - t0;
    r.values["build_s"] = tr.total("softphy.calibration_table.build");
    r.digests["run"] = runDigest(res, "");
}

/**
 * One table, then the analytic rung, the auto rung at 4 threads and
 * the auto rung at 1 thread, all on that injected table.
 */
void
autoRungs(Record &r, const Options &o)
{
    const sim::NetworkSpec spec = sim::parseNetworkSpecArg(autoArg(o));
    const auto table = std::make_shared<const softphy::CalibrationTable>(
        softphy::CalibrationTable::build(
            sim::NetworkSim::calibrationBuildSpec(spec)));
    const auto timed_run = [&](const sim::NetworkSpec &s, int threads,
                               const char *key) {
        sim::NetworkSim sim(s, table);
        const double t0 = nowS();
        const sim::NetworkResult res = sim.run(kAutoSlots, threads);
        r.values[key] = nowS() - t0;
        r.digests[key] = runDigest(res, "");
        return res;
    };
    sim::NetworkSpec analytic = spec;
    analytic.fidelity.mode = sim::FidelityMode::Analytic;
    timed_run(analytic, kThreads, "analytic");
    const sim::NetworkResult res = timed_run(spec, kThreads, "auto4");
    timed_run(spec, 1, "auto1");
    r.values["full_frames"] =
        static_cast<double>(res.aggregate.fullPhyFrames);
    r.values["analytic_frames"] =
        static_cast<double>(res.aggregate.analyticFrames);
}

void
autoProbes(const Options &o, Tally &t,
           std::map<std::string, double> &out, Tracer &spans,
           std::string &timed_digest)
{
    const Record timed = runChild([&](Record &r) {
        networkTimed(r, o, autoArg(o), kAutoSlots, kThreads);
    });
    const Record traced = runChild([&](Record &r) { autoTraced(r, o); });
    const Record rungs = runChild([&](Record &r) { autoRungs(r, o); });
    timed_digest = timed.ok ? timed.digests.at("run") : "";
    t.op(timed.ok && matchesPinned(o, "cell-auto", timed_digest),
         "cell-auto: timed run / pinned digest");
    t.op(traced.ok && traced.digests.at("run") == timed_digest,
         "cell-auto: traced replay differs from timed run");
    t.op(rungs.ok && rungs.digests.at("auto4") == timed_digest &&
             rungs.digests.at("auto1") == timed_digest,
         "cell-auto: injected-table runs differ from timed run");
    spans.append(traced.tracer);

    out["softphy.calib_build_s"] = traced.at("build_s");
    out["link_fidelity.auto_run_s"] = rungs.at("auto4");
    out["link_fidelity.analytic_run_s"] = rungs.at("analytic");
    out["link_fidelity.full_phy_s"] =
        rungs.at("auto4") - rungs.at("analytic");
    out["link_fidelity.full_frames"] = rungs.at("full_frames");
    out["link_fidelity.analytic_frames"] = rungs.at("analytic_frames");
    out["thread_pool.t1_s"] = rungs.at("auto1");
    out["thread_pool.t4_s"] = rungs.at("auto4");
    out["thread_pool.pareff_t4"] =
        rungs.at("auto4") > 0
            ? rungs.at("auto1") / (4.0 * rungs.at("auto4"))
            : 0.0;
    out["auto.traced_s"] = traced.at("traced_s");
    out["auto.trace_overhead_frac"] =
        timed.at("setup_s") + timed.at("run_s") > 0
            ? traced.at("traced_s") /
                      (timed.at("setup_s") + timed.at("run_s")) -
                  1.0
            : 0.0;
    copyCounts(out, timed, "auto");
}

// ---------------------------------------------------------- timing

/** One cold timed operation of @p workload (trace 0). */
Record
timedOp(const Options &o, const std::string &workload)
{
    if (workload == "link-ber-grid")
        return runChild([&](Record &r) { gridTimed(r, o, kThreads); });
    if (workload == "mobile-pkttrace")
        return runChild([&](Record &r) {
            networkTimed(r, o, mobileArg(o), kMobileSlots, kThreads);
        });
    if (workload == "cell-auto")
        return runChild([&](Record &r) {
            networkTimed(r, o, autoArg(o), kAutoSlots, kThreads);
        });
    // dense-campaign: per-worker setup in one process, the campaign
    // (the fan-out + 4 workers) in another.
    const Record setup = runChild([&](Record &r) { denseSetup(r, o); });
    Record rec = runChild(
        [&](Record &r) { campaignOrExit(r, o, kDenseSlots, nullptr); });
    rec.ok = rec.ok && setup.ok;
    rec.values["setup_s"] = setup.at("setup_s");
    rec.values["run_s"] = rec.at("wall_s");
    return rec;
}

/** Payload Mb per host second: grid payload, network goodput. */
double
payloadMbps(const Record &r)
{
    const double bits = r.values.count("payload_bits")
                            ? r.at("payload_bits")
                            : r.at("goodput_bits");
    return r.at("run_s") > 0 ? bits / 1e6 / r.at("run_s") : 0.0;
}

void
printResult(const Tally &t, bool complete,
            const std::map<std::string, double> &values,
            const std::vector<MetricDef> &defs)
{
    std::string m;
    for (const MetricDef &d : defs) {
        char buf[64];
        auto it = values.find(d.name);
        std::snprintf(buf, sizeof(buf), "%.17g",
                      it == values.end() ? 0.0 : it->second);
        if (!m.empty())
            m += ", ";
        m += "\"" + d.name + "\": {\"value\": " + buf +
             ", \"unit\": \"" + d.unit + "\"}";
    }
    std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, "
                "\"metrics\": {%s}}\n",
                complete && t.failed == 0 ? "true" : "false",
                t.attempted, t.failed, m.c_str());
}

int
runTimed(const Options &o)
{
    Tally t;
    std::vector<double> mbps, uslots, setup, rss;
    std::string first;
    const double deadline = nowS() + o.seconds;
    while (static_cast<int>(mbps.size()) < kMinIters || nowS() < deadline) {
        const Record r = timedOp(o, o.workload);
        const std::string d = r.digests.count("run") ? r.digests.at("run")
                                                     : "";
        if (first.empty())
            first = d;
        const bool ok = t.op(r.ok && d == first &&
                                 matchesPinned(o, o.workload, d),
                             o.workload + ": run digest " + d);
        if (!ok && !r.ok)
            break; // a crashing program will not get better
        mbps.push_back(payloadMbps(r));
        uslots.push_back(r.at("run_s") > 0 ? r.at("uslots") / r.at("run_s")
                                           : 0.0);
        setup.push_back(r.at("setup_s"));
        rss.push_back(r.peakRssMb);
    }
    std::printf("digest %s %s\n", o.workload.c_str(), first.c_str());
    std::printf("samples uslots_per_s");
    for (const double v : uslots)
        std::printf(" %.6g", v);
    std::printf("\nsamples setup_s");
    for (const double v : setup)
        std::printf(" %.6g", v);
    std::printf("\n");
    const std::map<std::string, double> values = {
        {"link_mbps", median(mbps)},
        {"uslots_per_s", median(uslots)},
        {"setup_s", median(setup)},
        {"peak_rss_mb", median(rss)},
    };
    printResult(t, true, values, endToEndDefs());
    return 0;
}

void
writeSpans(const Options &o, const Tracer &spans)
{
    std::ofstream out(o.workdir + "/spans.jsonl");
    char buf[512];
    for (const Tracer::Span &s : spans.spans()) {
        std::snprintf(buf, sizeof(buf),
                      "{\"name\": \"%s\", \"start\": %.9f, \"end\": "
                      "%.9f, \"parent\": %d}\n",
                      s.name.c_str(), s.start, s.end, s.parent);
        out << buf;
    }
}

int
runTraced(const Options &o)
{
    Tally t;
    std::map<std::string, double> out;
    Tracer spans;
    using Probe = void (*)(const Options &, Tally &,
                           std::map<std::string, double> &, Tracer &,
                           std::string &);
    const std::map<std::string, Probe> probes = {
        {"link-ber-grid", gridProbes},
        {"dense-campaign", denseProbes},
        {"mobile-pkttrace", mobileProbes},
        {"cell-auto", autoProbes},
    };
    // The first process a run forks is often the slowest (the host
    // is still ramping up); one unused operation keeps that skew out
    // of the probes' ratios.
    t.op(timedOp(o, o.workload).ok, o.workload + ": warm-up");
    // The selected workload's probes first, then the others: every
    // traced run reports the whole per-layer set.
    std::vector<std::string> order = {o.workload};
    for (const char *w : kWorkloads)
        if (o.workload != w)
            order.push_back(w);
    for (const std::string &w : order) {
        std::string digest;
        probes.at(w)(o, t, out, spans, digest);
        std::printf("digest %s %s\n", w.c_str(), digest.c_str());
    }
    writeSpans(o, spans);

    bool complete = true;
    for (const MetricDef &d : perLayerDefs())
        if (!out.count(d.name)) {
            std::fprintf(stderr, "perfbench: no value for %s\n",
                         d.name.c_str());
            complete = false;
        }
    printResult(t, complete, out, perLayerDefs());
    return 0;
}

void
listMetrics()
{
    const auto dump = [](const std::vector<MetricDef> &defs) {
        std::string s;
        for (const MetricDef &d : defs) {
            std::string bases;
            for (const std::string &b : d.bases)
                bases += (bases.empty() ? "\"" : ", \"") + b + "\"";
            s += std::string(s.empty() ? "" : ", ") + "{\"name\": \"" +
                 d.name + "\", \"unit\": \"" + d.unit +
                 "\", \"bases\": [" + bases + "]}";
        }
        return s;
    };
    std::string wl;
    for (const char *w : kWorkloads)
        wl += std::string(wl.empty() ? "\"" : ", \"") + w + "\"";
    std::printf("{\"workloads\": [%s], \"end_to_end\": [%s], "
                "\"per_layer\": [%s]}\n",
                wl.c_str(), dump(endToEndDefs()).c_str(),
                dump(perLayerDefs()).c_str());
}

/** Directory of the running binary (wilis_cli is built next to it). */
std::string
selfDir()
{
    char buf[4096];
    const ssize_t n = readlink("/proc/self/exe", buf, sizeof(buf) - 1);
    if (n <= 0)
        return ".";
    const std::string self(buf, static_cast<size_t>(n));
    return self.substr(0, self.rfind('/'));
}

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --workload W --seed N --seconds S "
                 "--trace 0|1 --workdir DIR --calibration FILE "
                 "--pinned FILE | --list-metrics\n",
                 argv0);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    Options o;
    for (int a = 1; a < argc; ++a) {
        const std::string flag = argv[a];
        if (flag == "--list-metrics") {
            listMetrics();
            return 0;
        }
        if (a + 1 >= argc)
            return usage(argv[0]);
        const std::string v = argv[++a];
        if (flag == "--workload")
            o.workload = v;
        else if (flag == "--seed")
            o.seed = std::strtoull(v.c_str(), nullptr, 10);
        else if (flag == "--seconds")
            o.seconds = std::atof(v.c_str());
        else if (flag == "--trace")
            o.trace = std::atoi(v.c_str());
        else if (flag == "--workdir")
            o.workdir = v;
        else if (flag == "--calibration")
            o.calibration = v;
        else if (flag == "--pinned")
            o.pinned = v;
        else
            return usage(argv[0]);
    }
    bool known = false;
    for (const char *w : kWorkloads)
        known = known || o.workload == w;
    if (!known || o.workdir.empty() || o.calibration.empty() ||
        o.calibration[0] != '/' || o.pinned.empty())
        return usage(argv[0]);
    // A forced backend makes the numbers incomparable with a default
    // run of the same commit; refuse rather than record them.
    if (std::getenv("WILIS_KERNEL_BACKEND")) {
        std::fprintf(stderr, "perfbench: WILIS_KERNEL_BACKEND is set; "
                             "unset it to benchmark\n");
        return 2;
    }
    o.worker = selfDir() + "/wilis_cli";
    if (access(o.worker.c_str(), X_OK) != 0 ||
        access(o.calibration.c_str(), R_OK) != 0)
        return usage(argv[0]);

    std::printf("context {\"workload\": \"%s\", \"seed\": %llu, "
                "\"trace\": %d, \"kernel_backend\": \"%s\", "
                "\"cpu_features\": \"%s\", \"nproc\": %u, "
                "\"build_type\": \"%s\"}\n",
                o.workload.c_str(),
                static_cast<unsigned long long>(o.seed), o.trace,
                kernels::backendName(kernels::activeBackend()),
                cpu::featureString().c_str(),
                std::thread::hardware_concurrency(), WILIS_BUILD_TYPE);
    return o.trace ? runTraced(o) : runTimed(o);
}
