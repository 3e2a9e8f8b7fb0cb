/**
 * @file
 * Multi-user network demo. Single-cell specs run N independent
 * links with per-user near/far SNR offsets on an AR(1) fading
 * timeline; multi-cell specs (cells=RxC) run the interference-aware
 * deployment: 2-D user placement, pathloss + shadowing link
 * budgets, per-slot SINR over same-slot interfering cells, traffic
 * queues and a per-cell scheduler. Prints a per-user table (capped
 * for large deployments), a per-cell summary and the aggregate
 * latency / rate-usage histograms.
 *
 * Run: ./build/network_sim [preset[,k=v,...]|k=v,...] [slots] [threads]
 *                          [--trace FILE]
 *      ./build/network_sim cell-16 200 4
 *      ./build/network_sim grid-3x3 400 4          # from repo root
 *      ./build/network_sim "users=8,snr_db=18,arq=stopwait" 100
 *      ./build/network_sim grid-3x3 200 4 --trace trace.txt
 *      ./build/network_sim urban-mobile 2000 4    # mobility + churn
 *
 * --trace FILE records the per-packet event trace (enqueue / grant
 * / tx / ack / drop / expire, plus ho / join / leave session events
 * on mobile runs) and saves it to FILE; the trace is bit-identical
 * for any thread count.
 */

#include <algorithm>
#include <climits>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "li/config.hh"
#include "mac/packet_trace.hh"
#include "phy/modulation.hh"
#include "sim/campaign.hh"
#include "sim/network_sim.hh"

using namespace wilis;

namespace {

void
printHistogram(const char *title, const Histogram &h,
               const std::function<std::string(int)> &label)
{
    std::uint64_t peak = 0;
    for (int b = 0; b < h.numBins(); ++b)
        peak = std::max(peak, h.count(b));
    if (peak == 0)
        return;
    std::printf("\n%s\n", title);
    for (int b = 0; b < h.numBins(); ++b) {
        if (h.count(b) == 0)
            continue;
        int bar = static_cast<int>(40 * h.count(b) / peak);
        std::printf("  %-14s %8llu %s\n", label(b).c_str(),
                    static_cast<unsigned long long>(h.count(b)),
                    std::string(static_cast<size_t>(bar), '#')
                        .c_str());
    }
}

} // namespace

int
main(int argc, char **argv)
{
    // Peel off "--trace FILE" anywhere on the line, then read the
    // positionals as before.
    std::string trace_file;
    std::vector<std::string> pos;
    for (int a = 1; a < argc; ++a) {
        if (std::string(argv[a]) == "--trace") {
            if (a + 1 >= argc) {
                std::fprintf(stderr,
                             "--trace needs a file argument\n");
                return 1;
            }
            trace_file = argv[++a];
        } else {
            pos.emplace_back(argv[a]);
        }
    }
    // The numeric positionals go through li::Config's strict
    // getters, so a malformed value is fatal and names its argument.
    li::Config args;
    if (pos.size() > 1)
        args.set("slots", pos[1]);
    if (pos.size() > 2)
        args.set("threads", pos[2]);
    std::string what = pos.size() > 0 ? pos[0] : "cell-16";
    std::uint64_t slots = args.getUint64("slots", 120);
    int threads =
        static_cast<int>(args.getInt("threads", 0, 0, INT_MAX));

    // A preset name (with optional k=v overrides), a bare config
    // string, or a config file -- the shared spec-argument parser.
    sim::NetworkSpec spec = sim::parseNetworkSpecArg(what);

    if (spec.multicell())
        std::printf("network: %s — %dx%d cells, %d users, %s "
                    "traffic (load %g), %s scheduler, %s ARQ "
                    "(window %d), %.0f Hz Doppler, %s fidelity\n",
                    spec.name.c_str(), spec.topology.rows,
                    spec.topology.cols, spec.numUsers,
                    mac::trafficKindName(spec.traffic.kind),
                    spec.traffic.load,
                    mac::schedulerKindName(spec.scheduler.kind),
                    mac::arqModeName(spec.arqMode), spec.arqWindow,
                    spec.dopplerHz,
                    sim::fidelityModeName(spec.fidelity.mode));
    else
        std::printf("network: %s — %d users, %s arrivals, %s ARQ "
                    "(window %d), %.0f Hz Doppler, SNR %g±%g dB, "
                    "%s fidelity\n",
                    spec.name.c_str(), spec.numUsers,
                    spec.arrivalModel.c_str(),
                    mac::arqModeName(spec.arqMode), spec.arqWindow,
                    spec.dopplerHz, spec.link.snrDb(),
                    spec.snrSpreadDb,
                    sim::fidelityModeName(spec.fidelity.mode));

    // One run through the unified campaign entry point (which turns
    // the trace on when a trace file is requested).
    sim::RunRequest req;
    req.spec = spec;
    req.slots = slots;
    req.threads = threads;
    req.traceFile = trace_file;
    sim::NetworkResult res = sim::runNetworkRun(req);
    spec = res.spec;

    if (!trace_file.empty()) {
        res.trace->save(trace_file);
        std::printf("trace: %zu events -> %s\n",
                    res.trace->entries().size(),
                    trace_file.c_str());
    }

    // Per-user detail reads well to a few dozen users; a 10k-user
    // deployment speaks through the per-cell and aggregate views.
    if (res.users.size() <= 64) {
        // The cell column only means something on a grid.
        std::printf(
            "\n%-5s %s%-9s %-7s %-8s %-7s %-7s %-9s %-10s %-8s\n",
            "user", spec.multicell() ? "cell  " : "", "snr dB",
            "sent", "ok%", "rtx", "drop", "goodput", "latency",
            "top rate");
        for (const sim::UserStats &u : res.users) {
            // Most used rate for the narrative column.
            int top = 0;
            for (int b = 1; b < u.rateHist.numBins(); ++b)
                if (u.rateHist.count(b) > u.rateHist.count(top))
                    top = b;
            std::printf("%-5d ", u.user);
            if (spec.multicell())
                std::printf("%-5d ", u.servingCell);
            const double snr =
                spec.multicell()
                    ? u.meanSnrDb
                    : spec.link.snrDb() + u.snrOffsetDb;
            std::printf(
                "%-9.1f %-7llu %-8.1f %-7llu %-7llu "
                "%-9.3f %-10.1f %s\n",
                snr,
                static_cast<unsigned long long>(u.framesSent),
                100.0 * u.frameSuccessRate(),
                static_cast<unsigned long long>(u.retransmissions),
                static_cast<unsigned long long>(u.dropped),
                u.goodputMbps(res.slots, spec.frameIntervalUs),
                u.latencySlots.mean(),
                phy::rateTable(top).name().c_str());
        }
    }

    if (spec.multicell()) {
        // Per-cell roll-up: merge each cell's users in user order
        // (deterministic, like the aggregate).
        std::vector<sim::UserStats> cells(
            static_cast<size_t>(res.cells));
        std::vector<int> population(static_cast<size_t>(res.cells),
                                    0);
        for (const sim::UserStats &u : res.users) {
            cells[static_cast<size_t>(u.servingCell)].merge(u);
            ++population[static_cast<size_t>(u.servingCell)];
        }
        std::printf("\n%-5s %-6s %-8s %-8s %-9s %-10s %-10s\n",
                    "cell", "users", "sent", "ok%", "goodput",
                    "sinr dB", "queue dr");
        for (int c = 0; c < res.cells; ++c) {
            const sim::UserStats &cs =
                cells[static_cast<size_t>(c)];
            std::printf(
                "%-5d %-6d %-8llu %-8.1f %-9.3f %-10.1f %-10llu\n",
                c, population[static_cast<size_t>(c)],
                static_cast<unsigned long long>(cs.framesSent),
                100.0 * cs.frameSuccessRate(),
                cs.goodputMbps(res.slots, spec.frameIntervalUs),
                cs.sinrDb.mean(),
                static_cast<unsigned long long>(cs.queueDrops));
        }
    }

    const sim::UserStats &agg = res.aggregate;
    if (spec.multicell())
        std::printf("\ntraffic: %llu arrivals, %llu queue drops, "
                    "mean queue wait %.1f slots, mean SINR %.1f dB, "
                    "%llu contention-stalled user-slots\n",
                    static_cast<unsigned long long>(agg.arrivals),
                    static_cast<unsigned long long>(agg.queueDrops),
                    agg.queueWaitSlots.mean(), agg.sinrDb.mean(),
                    static_cast<unsigned long long>(
                        agg.stalledSlots));
    // Session dynamics only exist when the spec asks for them, and
    // static runs must print byte-identical output to earlier PRs.
    if (spec.multicell() && spec.mobility.enabled())
        std::printf("mobility: %llu handovers (%llu ping-pong), "
                    "%llu joins, %llu leaves, pre/post-HO goodput "
                    "%.3f/%.3f Mb/s\n",
                    static_cast<unsigned long long>(agg.handovers),
                    static_cast<unsigned long long>(agg.pingPongs),
                    static_cast<unsigned long long>(agg.joins),
                    static_cast<unsigned long long>(agg.leaves),
                    agg.preHoGoodputMbps(spec.frameIntervalUs),
                    agg.postHoGoodputMbps(spec.frameIntervalUs));
    if (agg.analyticFrames)
        std::printf("\nfidelity mix: %llu full-PHY + %llu analytic "
                    "frame slots (%.1f%% bit-exact)\n",
                    static_cast<unsigned long long>(
                        agg.fullPhyFrames),
                    static_cast<unsigned long long>(
                        agg.analyticFrames),
                    agg.framesSent
                        ? 100.0 *
                              static_cast<double>(agg.fullPhyFrames) /
                              static_cast<double>(agg.framesSent)
                        : 0.0);
    std::printf("\naggregate: %llu frames, %.1f%% clean, %llu rtx, "
                "%llu delivered, %llu dropped, %.3f Mb/s cell "
                "goodput, p50/p95 latency %.0f/%.0f slots\n",
                static_cast<unsigned long long>(agg.framesSent),
                100.0 * agg.frameSuccessRate(),
                static_cast<unsigned long long>(agg.retransmissions),
                static_cast<unsigned long long>(agg.delivered),
                static_cast<unsigned long long>(agg.dropped),
                res.aggregateGoodputMbps(),
                agg.latencyHist.quantile(0.5),
                agg.latencyHist.quantile(0.95));

    printHistogram("delivery latency (slots)", agg.latencyHist,
                   [](int b) { return std::to_string(b); });
    printHistogram("transmissions per rate", agg.rateHist, [](int b) {
        return phy::rateTable(b).name();
    });
    return 0;
}
