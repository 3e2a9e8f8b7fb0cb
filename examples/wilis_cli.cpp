/**
 * @file
 * Config-file-driven simulation runner -- the AWB-style plug-n-play
 * workflow (WiLIS section 2) as a command-line tool: describe an
 * experiment, run it, get a report. No source changes to swap any
 * implementation, and one tool for every execution style.
 *
 * Link-experiment mode:
 *   ./build/wilis_cli experiment.cfg
 *   ./build/wilis_cli "rate=4,decoder=sova,snr_db=9,packets=200"
 *   ./build/wilis_cli rayleigh-fading,snr_db=10   (preset + tweaks)
 *
 * The argument is classified by sim::specArgConfig() -- a config
 * file, an inline key=value list, or a scenario preset with optional
 * overrides -- into one flat config, and the CLI peels off its own
 * keys:
 *   packets     packets to simulate (>= 1)    [default 100]
 *   threads     worker threads (0=all)        [0]
 * Every other key is owned by the spec parser (rate, decoder,
 * channel, snr_db, payload_bits, ...). A channel or decoder parameter
 * is channel.<k> / decoder.<k> (channel.doppler_hz=20,
 * decoder.block_len=32), and must be one the selected implementation
 * declares.
 *
 * Network mode (any "--" flag selects it):
 *   ./build/wilis_cli --network <spec-arg> [--slots N] [--threads N]
 *       [--shard I/N | --shards N] [--report FILE] [--trace FILE]
 *       [--json FILE]
 *   ./build/wilis_cli --network <spec-arg> --calibrate FILE
 *       [--threads N]
 * <spec-arg> is anything sim::parseNetworkSpecArg() takes: a
 * network preset ("grid-3x3", "dense-urban-10k,reps=4"), an inline
 * key=value list, or a config file. Every simulating mode runs
 * through sim::runCampaignShard() (sim/campaign.hh):
 *  - in-process (default): every replication in this process,
 *    printing its per-user table (up to 64 users), per-cell summary
 *    and latency / rate histograms; --report saves the merged
 *    campaign report, --trace the packet trace of a reps=1 run;
 *  - worker (--shard I/N): shard I's replications, with --report
 *    saving the shard report for a coordinator to merge;
 *  - coordinator (--shards N): runs N workers of this same binary,
 *    merges their reports (byte-identical for any N), and writes
 *    --report and the --json bench record (wall time, unit-slots/s).
 *
 *   ./build/wilis_cli --network grid-3x3 --slots 400 --threads 4
 *   ./build/wilis_cli --network urban-mobile --slots 2000 --trace t.txt
 *   ./build/wilis_cli --network dense-urban-10k,reps=4 --shards 4
 *
 * Calibration (--calibrate FILE): measure the table the spec's
 * analytic fidelity rung reads -- every (rate, SNR bin) cell of
 * sim::NetworkSim::calibrationBuildSpec(spec) against the bit-exact
 * PHY -- and write it to FILE. The committed
 * data/network_calibration.txt is the output of
 *   ./build/wilis_cli --network cell-16 \
 *       --calibrate data/network_calibration.txt
 * Regenerate it whenever the PHY, the decoder defaults or the preset
 * link template change.
 */

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.hh"
#include "common/kernels.hh"
#include "common/logging.hh"
#include "common/table.hh"
#include "decode/bcjr.hh"
#include "mac/packet_trace.hh"
#include "phy/modulation.hh"
#include "sim/campaign.hh"
#include "sim/network_sim.hh"
#include "sim/scenario.hh"
#include "sim/sweep.hh"
#include "synth/area.hh"

using namespace wilis;

namespace {

/** A counter as printf's %llu argument. */
unsigned long long
ull(std::uint64_t v)
{
    return v;
}

/** Keys the CLI consumes itself, peeled before the spec parser. */
const char *const kCliKeys[] = {"packets", "threads"};

int
runLinkExperiment(int argc, char **argv)
{
    sim::ScenarioSpec defaults;
    defaults.rate = 2;
    defaults.payloadBits = 1704;
    defaults.channelCfg = li::Config::fromString("snr_db=8,seed=1");

    sim::ScenarioSpec spec = defaults;
    li::Config cli; // the CLI-only keys
    wilis_fatal_if(argc > 2, "link mode takes one argument, got '%s'",
                   argv[2]);
    if (argc > 1) {
        const li::Config arg =
            sim::specArgConfig(argv[1], sim::hasScenarioPreset);
        li::Config rest;
        for (const auto &[key, value] : arg.entries())
            (std::ranges::count(kCliKeys, key) ? cli : rest).set(key, value);
        spec = sim::scenarioSpecFromArgConfig(rest, defaults);
    } else {
        std::fprintf(stderr,
                     "usage: %s <config-file | key=value,... | "
                     "preset>\n"
                     "running the default experiment instead\n\n",
                     argv[0]);
    }

    std::uint64_t packets = 100;
    int threads = 0;
    const li::ApplyKeys read(cli);
    read("packets", packets, li::atLeast<std::uint64_t>(1));
    read("threads", threads, li::atLeast(0));

    std::printf("WiLIS experiment: %s, %s decoder, %s channel @ %.1f "
                "dB, %llu packets x %zu bits\n\n",
                phy::rateTable(spec.rate).name().c_str(),
                spec.rx.decoder.c_str(), spec.channel.c_str(),
                spec.snrDb(), ull(packets), spec.payloadBits);

    // BER + PER sweep on the zero-copy frame path, reduced in packet
    // order.
    std::uint64_t packet_errors = 0;
    ErrorStats bits;
    for (const ErrorStats &s : sim::sweepPackets(
             {spec}, packets, threads,
             [](size_t, std::uint64_t, const sim::FrameResult &res) {
                 return ErrorStats{res.txPayload.size(), res.bitErrors};
             })) {
        bits.merge(s);
        packet_errors += s.errors ? 1 : 0;
    }

    Table t({"metric", "value"});
    t.addRow({"scenario", spec.label()});
    t.addRow({"bits simulated", strprintf("%llu", ull(bits.bits))});
    t.addRow({"bit errors", strprintf("%llu", ull(bits.errors))});
    t.addRow({"BER", strprintf("%.3e", bits.ber())});
    t.addRow({"PER", strprintf("%.3f",
                               static_cast<double>(packet_errors) /
                                   static_cast<double>(packets))});

    // Architecture summary for the selected decoder.
    auto dec = decode::makeDecoder(spec.rx.decoder,
                                   spec.rx.decoderCfg);
    t.addRow({"decoder latency (cycles)",
              strprintf("%d", dec->pipelineLatencyCycles())});
    t.addRow({"decoder latency @60 MHz (us)",
              strprintf("%.2f",
                        synth::latencyUs(dec->pipelineLatencyCycles(),
                                         60.0))});
    synth::DecoderAreaParams ap;
    ap.softWidth = spec.rx.demapper.softWidth;
    ap.window = static_cast<int>(spec.rx.decoderCfg.getInt(
        "block_len", decode::BcjrParams{}.blockLen));
    std::string area_name = spec.rx.decoder == "bcjr-logmap"
                                ? "bcjr"
                                : spec.rx.decoder;
    t.addRow({"modeled area (LUTs)",
              strprintf("%ld",
                        synth::decoderTotal(area_name, ap).luts)});
    t.print();
    return 0;
}

// ---------------------------------------------------- network mode

/** The network-mode flags; each takes exactly one value. */
const char *const kNetworkFlags[] = {
    "--network", "--slots", "--threads", "--shard",     "--shards",
    "--report",  "--trace", "--json",    "--calibrate",
};

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
        const auto bar = static_cast<size_t>(40 * h.count(b) / peak);
        std::printf("  %-14s %8llu %s\n", label(b).c_str(),
                    ull(h.count(b)), std::string(bar, '#').c_str());
    }
}

/** The one-line description of the deployment about to run. */
void
printNetworkHeader(const sim::NetworkSpec &spec)
{
    if (spec.multicell())
        std::printf("network: %s — %dx%d cells, %d users, %s "
                    "traffic (load %g), %s scheduler, %s ARQ "
                    "(window %d), %.0f Hz Doppler, %s fidelity\n",
                    spec.name.c_str(), spec.topology.rows,
                    spec.topology.cols, spec.numUsers,
                    mac::kTrafficKindNames.name(spec.traffic.kind).data(),
                    spec.traffic.load,
                    mac::kSchedulerKindNames.name(spec.scheduler.kind)
                        .data(),
                    mac::kArqModeNames.name(spec.arqMode).data(),
                    spec.arqWindow, spec.dopplerHz,
                    sim::kFidelityModeNames.name(spec.fidelity.mode).data());
    else
        std::printf("network: %s — %d users, %s arrivals, %s ARQ "
                    "(window %d), %.0f Hz Doppler, SNR %g±%g dB, "
                    "%s fidelity\n",
                    spec.name.c_str(), spec.numUsers,
                    sim::kArrivalModelNames.name(spec.arrivalModel).data(),
                    mac::kArqModeNames.name(spec.arqMode).data(),
                    spec.arqWindow, spec.dopplerHz, spec.link.snrDb(),
                    spec.snrSpreadDb,
                    sim::kFidelityModeNames.name(spec.fidelity.mode).data());
}

/**
 * One replication's report: a per-user table (capped for large
 * deployments), a per-cell summary on grids, the traffic, mobility
 * and fidelity lines, and the aggregate latency / rate histograms.
 */
void
printNetworkResult(const sim::NetworkResult &res)
{
    const sim::NetworkSpec &spec = res.spec;
    const double frame_us = spec.frameIntervalUs;
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
            std::printf("%-9.1f %-7llu %-8.1f %-7llu %-7llu %-9.3f "
                        "%-10.1f %s\n",
                        spec.multicell()
                            ? u.meanSnrDb
                            : spec.link.snrDb() + u.snrOffsetDb,
                        ull(u.framesSent), 100.0 * u.frameSuccessRate(),
                        ull(u.retransmissions), ull(u.dropped),
                        u.goodputMbps(res.slots, frame_us),
                        u.latencySlots.mean(),
                        phy::rateTable(top).name().c_str());
        }
    }

    if (spec.multicell()) {
        // Per-cell roll-up: merge each cell's users in user order
        // (deterministic, like the aggregate).
        const auto n = static_cast<size_t>(res.cells);
        std::vector<sim::UserStats> cells(n);
        std::vector<int> population(n, 0);
        for (const sim::UserStats &u : res.users) {
            cells[static_cast<size_t>(u.servingCell)].merge(u);
            ++population[static_cast<size_t>(u.servingCell)];
        }
        std::printf("\n%-5s %-6s %-8s %-8s %-9s %-10s %-10s\n",
                    "cell", "users", "sent", "ok%", "goodput",
                    "sinr dB", "queue dr");
        for (size_t c = 0; c < n; ++c)
            std::printf(
                "%-5zu %-6d %-8llu %-8.1f %-9.3f %-10.1f %-10llu\n", c,
                population[c], ull(cells[c].framesSent),
                100.0 * cells[c].frameSuccessRate(),
                cells[c].goodputMbps(res.slots, frame_us),
                cells[c].sinrDb.mean(), ull(cells[c].queueDrops));
    }

    const sim::UserStats &agg = res.aggregate;
    if (spec.multicell())
        std::printf("\ntraffic: %llu arrivals, %llu queue drops, "
                    "mean queue wait %.1f slots, mean SINR %.1f dB, "
                    "%llu contention-stalled user-slots\n",
                    ull(agg.arrivals), ull(agg.queueDrops),
                    agg.queueWaitSlots.mean(), agg.sinrDb.mean(),
                    ull(agg.stalledSlots));
    // Session dynamics only exist when the spec asks for them.
    if (spec.multicell() && spec.mobility.enabled())
        std::printf("mobility: %llu handovers (%llu ping-pong), "
                    "%llu joins, %llu leaves, pre/post-HO goodput "
                    "%.3f/%.3f Mb/s\n",
                    ull(agg.handovers), ull(agg.pingPongs),
                    ull(agg.joins), ull(agg.leaves),
                    agg.preHoGoodputMbps(frame_us),
                    agg.postHoGoodputMbps(frame_us));
    if (agg.analyticFrames)
        std::printf("\nfidelity mix: %llu full-PHY + %llu analytic "
                    "frame slots (%.1f%% bit-exact)\n",
                    ull(agg.fullPhyFrames), ull(agg.analyticFrames),
                    agg.framesSent
                        ? 100.0 *
                              static_cast<double>(agg.fullPhyFrames) /
                              static_cast<double>(agg.framesSent)
                        : 0.0);
    std::printf("\naggregate: %llu frames, %.1f%% clean, %llu rtx, "
                "%llu delivered, %llu dropped, %.3f Mb/s cell "
                "goodput, p50/p95 latency %.0f/%.0f slots\n",
                ull(agg.framesSent), 100.0 * agg.frameSuccessRate(),
                ull(agg.retransmissions), ull(agg.delivered),
                ull(agg.dropped), res.aggregateGoodputMbps(),
                agg.latencyHist.quantile(0.5),
                agg.latencyHist.quantile(0.95));

    printHistogram("delivery latency (slots)", agg.latencyHist,
                   [](int b) { return std::to_string(b); });
    printHistogram("transmissions per rate", agg.rateHist, [](int b) {
        return phy::rateTable(b).name();
    });
}

/** The merged campaign's totals, goodput averaged per rep. */
void
printCampaignAggregate(const sim::RunReport &merged, double frame_us)
{
    const sim::UnitReport &agg = merged.aggregate;
    std::printf("aggregate: %d cells, %d users/rep, %llu delivered, "
                "%llu dropped, goodput %.3f Mb/s per rep\n",
                agg.cells, agg.users, ull(agg.stats.delivered),
                ull(agg.stats.dropped),
                agg.stats.goodputMbps(
                    merged.slots * ull(merged.unitsTotal), frame_us));
}

/**
 * Worker (--shard I/N): run this shard's replications and print a
 * one-line summary; req.reportFile gets the shard report a
 * coordinator merges.
 */
void
runWorker(const sim::RunRequest &req)
{
    const sim::RunReport rep = sim::runCampaignShard(req);
    std::uint64_t delivered = 0;
    std::uint64_t goodput_bits = 0;
    for (const auto &u : rep.units) {
        delivered += u.stats.delivered;
        goodput_bits += u.stats.goodputBits;
    }
    std::printf("campaign shard %d/%d: %zu/%d units, %llu slots, "
                "%llu frames delivered, %llu payload bits\n",
                req.shardIndex, req.shardCount, rep.units.size(),
                rep.unitsTotal, ull(rep.slots), ull(delivered),
                ull(goodput_bits));
    if (!req.reportFile.empty())
        std::printf("report -> %s\n", req.reportFile.c_str());
}

/**
 * In-process (the default): run every replication here, printing
 * each one's tables as it finishes, then the campaign aggregate
 * when there is more than one. Returns the merged report.
 */
sim::RunReport
runInProcess(const sim::RunRequest &req)
{
    const int reps = req.spec.reps;
    printNetworkHeader(req.spec);
    const sim::RunReport rep = sim::runCampaignShard(
        req, [&](int unit, const sim::NetworkResult &res) {
            if (reps > 1)
                std::printf("\nreplication %d/%d (net_seed %llu)\n",
                            unit, reps, ull(res.spec.seed));
            if (!req.traceFile.empty())
                std::printf("trace: %zu events -> %s\n",
                            res.trace->entries().size(),
                            req.traceFile.c_str());
            printNetworkResult(res);
        });
    const sim::RunReport merged = sim::mergeReports({rep});
    if (reps > 1) {
        std::printf("\ncampaign: %d unit(s) x %llu slots in one "
                    "process\n",
                    reps, ull(req.slots));
        printCampaignAggregate(merged, req.spec.frameIntervalUs);
    }
    return merged;
}

/**
 * Spawn one worker: fork + execv of this very binary (no shell --
 * the canonical spec string travels as one argv entry, so no
 * quoting layer can corrupt it), its stdout sent to /dev/null.
 * Returns the child pid, or -1 if fork failed.
 */
pid_t
spawnWorker(const char *argv0, const std::vector<std::string> &args)
{
    const pid_t pid = fork();
    if (pid == 0) {
        // A worker's progress lines would reach the coordinator's
        // stdout in completion order; stderr stays, so fatals show.
        const int null_fd = open("/dev/null", O_WRONLY);
        if (null_fd >= 0) {
            dup2(null_fd, STDOUT_FILENO);
            close(null_fd);
        }
        std::vector<char *> argv{const_cast<char *>(argv0)};
        for (const std::string &a : args)
            argv.push_back(const_cast<char *>(a.c_str()));
        argv.push_back(nullptr);
        execv("/proc/self/exe", argv.data());
        std::fprintf(stderr, "exec /proc/self/exe failed: %s\n",
                     std::strerror(errno));
        _exit(127);
    }
    return pid;
}

/**
 * Wait for worker @p pid and read its report into @p text; false
 * if the worker failed or left no report.
 */
bool
collectWorker(pid_t pid, const std::string &report, std::string &text)
{
    int status = 0;
    pid_t got = -1;
    while (pid > 0 && (got = waitpid(pid, &status, 0)) < 0 &&
           errno == EINTR) {
    }
    std::ifstream in(report, std::ios::binary);
    if (got != pid || !WIFEXITED(status) || WEXITSTATUS(status) != 0 ||
        !in)
        return false;
    text.assign(std::istreambuf_iterator<char>(in),
                std::istreambuf_iterator<char>());
    return true;
}

/**
 * Write the fan-out's bench-trajectory record in the
 * bench/meta/metrics schema that tools/check_bench_regression.py
 * compares against the committed BENCH_campaign.json.
 */
void
writeCampaignJson(const std::string &path, const std::string &config,
                  const sim::RunReport &merged, int shards,
                  double wall_s)
{
    const double unit_slots = static_cast<double>(merged.slots) *
                              static_cast<double>(merged.unitsTotal);
    json::JsonWriter w;
    w.beginObject().key("bench").value("campaign");
    w.key("meta").beginObject().key("config").value(config);
    w.key("slots").value(std::to_string(merged.slots));
    w.key("shards").value(std::to_string(shards)).endObject();
    w.key("metrics").beginArray();
    const auto metric = [&](const char *name, double value,
                            const char *unit, bool higher_is_better) {
        w.beginObject().key("name").value(name);
        w.key("value").valueDouble(value, "%.6g");
        w.key("unit").value(unit);
        w.key("higher_is_better").valueBool(higher_is_better);
        w.endObject();
    };
    metric("wall_s", wall_s, "s", false);
    metric("unit_slots_per_s", wall_s > 0.0 ? unit_slots / wall_s : 0.0,
           "slots/s", true);
    w.endArray().endObject();

    std::ofstream out(path, std::ios::binary);
    out << w.str();
    wilis_fatal_if(!out, "cannot write JSON report '%s'", path.c_str());
    std::printf("wrote JSON report: %s\n", path.c_str());
}

/**
 * Coordinator (--shards N): fan the campaign out over N worker
 * processes of this binary, wait for every one, and merge their
 * reports. The shard files and their temp directory are removed on
 * every path; a failed worker fails the run, naming every failed
 * shard. @p json_file, if set, gets the bench record.
 */
sim::RunReport
runCoordinator(const sim::RunRequest &req, int shards,
               const std::string &json_file, const char *argv0)
{
    // Every worker parses the spec's canonical string, so all shard
    // reports agree on the config field the merge validates.
    const std::string canonical = req.spec.toConfig().toString();
    char tmpl[] = "/tmp/wilis_shards.XXXXXX";
    const char *tmpdir = mkdtemp(tmpl);
    wilis_fatal_if(tmpdir == nullptr, "mkdtemp failed: %s",
                   std::strerror(errno));

    const auto start = std::chrono::steady_clock::now();
    std::vector<std::string> files;
    std::vector<pid_t> pids;
    for (int i = 0; i < shards; ++i) {
        files.push_back(std::string(tmpdir) + "/shard_" +
                        std::to_string(i) + ".json");
        std::vector<std::string> args = {
            "--network", canonical, "--slots", std::to_string(req.slots),
            "--threads", std::to_string(req.threads), "--shard",
            std::to_string(i) + "/" + std::to_string(shards), "--report",
            files.back()};
        pids.push_back(spawnWorker(argv0, args));
    }

    // Reap every worker and clear the temp directory before acting
    // on any failure, so nothing is left running or on disk.
    std::vector<std::string> texts(files.size());
    std::string failed;
    for (size_t i = 0; i < files.size(); ++i) {
        if (!collectWorker(pids[i], files[i], texts[i]))
            failed += (failed.empty() ? "" : ", ") + std::to_string(i);
        std::remove(files[i].c_str());
    }
    rmdir(tmpdir);
    wilis_fatal_if(!failed.empty(), "campaign shard(s) %s of %d failed",
                   failed.c_str(), shards);

    std::vector<sim::RunReport> parts;
    for (size_t i = 0; i < files.size(); ++i)
        parts.push_back(sim::RunReport::fromJsonText(texts[i], files[i]));
    const sim::RunReport merged = sim::mergeReports(parts);
    const std::chrono::duration<double> wall =
        std::chrono::steady_clock::now() - start;

    std::printf("campaign: %d unit(s) x %llu slots over %d shard(s) in "
                "%.2f s\n",
                merged.unitsTotal, ull(req.slots), shards, wall.count());
    printCampaignAggregate(merged, req.spec.frameIntervalUs);
    if (!json_file.empty())
        writeCampaignJson(json_file, canonical, merged, shards,
                          wall.count());
    return merged;
}

/**
 * Calibration (--calibrate FILE): build the table
 * sim::NetworkSim::calibrationBuildSpec() derives for @p spec and
 * save it to @p path.
 */
void
writeCalibration(const sim::NetworkSpec &spec, int threads,
                 const std::string &path)
{
    softphy::CalibrationTable::BuildSpec build =
        sim::NetworkSim::calibrationBuildSpec(spec);
    build.threads = threads;
    const double snr_hi_db = build.snrLoDb + build.numBins * build.snrStepDb;
    std::printf("calibrating %s: %d rates x %d bins "
                "[%g..%g dB step %g], %llu packets/cell, "
                "payload %zu bits, decoder %s\n",
                spec.name.c_str(), phy::kNumRates, build.numBins,
                build.snrLoDb, snr_hi_db, build.snrStepDb,
                ull(build.packetsPerCell), build.payloadBits,
                build.rx.decoder.c_str());
    softphy::CalibrationTable::build(build).save(path);
    std::printf("wrote %s\n", path.c_str());
}

int
runNetworkMode(int argc, char **argv)
{
    // Every flag value, keyed by the flag: li::Config's strict
    // getters make a malformed or out-of-range value fatal, naming
    // the flag. Stray arguments, unknown or repeated flags and
    // combinations no mode can honor are fatal too, so nothing on
    // the command line is silently dropped.
    li::Config flags;
    for (int a = 1; a < argc; ++a) {
        const std::string flag = argv[a];
        wilis_fatal_if(std::find(std::begin(kNetworkFlags),
                                 std::end(kNetworkFlags),
                                 flag) == std::end(kNetworkFlags),
                       "unknown network-mode argument '%s'",
                       flag.c_str());
        wilis_fatal_if(a + 1 >= argc, "%s needs an argument",
                       flag.c_str());
        wilis_fatal_if(flags.has(flag), "%s given twice", flag.c_str());
        flags.set(flag, argv[++a]);
    }
    wilis_fatal_if(!flags.has("--network"),
                   "--network <spec-arg> is required");
    // A worker runs one shard; a coordinator runs none itself but
    // alone times the fan-out, and a packet trace records one run.
    // Calibration runs no slots at all.
    const char *const exclusive[][2] = {
        {"--shard", "--shards"},     {"--shard", "--json"},
        {"--shards", "--trace"},     {"--calibrate", "--shard"},
        {"--calibrate", "--shards"}, {"--calibrate", "--slots"},
        {"--calibrate", "--trace"},  {"--calibrate", "--report"},
        {"--calibrate", "--json"},
    };
    for (const auto &pair : exclusive)
        wilis_fatal_if(flags.has(pair[0]) && flags.has(pair[1]),
                       "%s and %s cannot be combined", pair[0], pair[1]);
    wilis_fatal_if(flags.has("--json") && !flags.has("--shards"),
                   "--json needs --shards N");

    sim::RunRequest req;
    const li::ApplyKeys read(flags);
    req.slots = flags.getUint64("--slots", req.slots);
    read("--threads", req.threads, li::atLeast(0));
    if (flags.has("--shard")) {
        const std::string v = flags.getString("--shard");
        const size_t slash = v.find('/');
        if (slash == std::string::npos)
            wilis_fatal("--shard wants I/N, got '%s'", v.c_str());
        li::Config shard;
        shard.set("--shard I", v.substr(0, slash));
        shard.set("--shard N", v.substr(slash + 1));
        const li::ApplyKeys read_shard(shard);
        read_shard("--shard N", req.shardCount, li::atLeast(1));
        read_shard("--shard I", req.shardIndex,
                   li::within(0, req.shardCount - 1));
    }
    int shards = 0;
    read("--shards", shards, li::atLeast(1));
    const std::string report_file = flags.getString("--report");
    req.traceFile = flags.getString("--trace");
    req.spec = sim::parseNetworkSpecArg(flags.getString("--network"));

    if (flags.has("--calibrate")) {
        writeCalibration(req.spec, req.threads,
                         flags.getString("--calibrate"));
        return 0;
    }
    if (flags.has("--shard")) {
        req.reportFile = report_file;
        runWorker(req);
        return 0;
    }
    const sim::RunReport merged =
        shards > 0 ? runCoordinator(req, shards,
                                    flags.getString("--json"), argv[0])
                   : runInProcess(req);
    if (!report_file.empty()) {
        merged.save(report_file);
        std::printf("merged report -> %s\n", report_file.c_str());
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    // Resolve the kernel table up front, so a bad WILIS_KERNEL_BACKEND
    // is fatal even in a run that never calls a kernel.
    kernels::ops();
    for (int a = 1; a < argc; ++a)
        if (std::string(argv[a]).rfind("--", 0) == 0)
            return runNetworkMode(argc, argv);
    return runLinkExperiment(argc, argv);
}
