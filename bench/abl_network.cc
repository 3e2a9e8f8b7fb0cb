/**
 * @file
 * Ablation: multi-user network simulator scaling. Sweeps the worker
 * thread count for a fixed cell (>= 32 users) and reports aggregate
 * simulated frames per second, then sweeps the user count at a fixed
 * thread count to show how cell size moves the bottleneck. Because
 * runs are bit-identical for any thread count, the speedup column is
 * a pure execution-architecture measurement -- the physics cannot
 * drift with the sharding.
 *
 * The fidelity A/B section runs the same cell through the three
 * fidelity modes (full / analytic / auto) at an equal user count and
 * reports simulated user-slots per wall-clock second for each plus
 * the speedup over full -- the headline of the hybrid-fidelity PR:
 * the analytic path must clear >= 10x, auto >= 5x, and the bench
 * exits nonzero below those floors (CI's bench-trajectory job runs
 * it, so the contract is enforced, not just printed). A
 * cell-1k-sized analytic run closes the section (thousands of
 * users, the scale full PHY cannot reach).
 */

#include <cstdio>
#include <memory>

#include "bench/bench_util.hh"
#include "common/cpu_features.hh"
#include "common/kernels.hh"
#include "common/logging.hh"
#include "sim/link_fidelity.hh"
#include "sim/network_sim.hh"

using namespace wilis;

namespace {

double
framesPerSec(const sim::NetworkSpec &spec, std::uint64_t slots,
             int threads, std::uint64_t *frames_out)
{
    sim::NetworkSim sim(spec);
    bench::Stopwatch timer;
    sim::NetworkResult res = sim.run(slots, threads);
    double secs = timer.seconds();
    if (frames_out)
        *frames_out = res.aggregate.framesSent;
    return secs > 0.0
               ? static_cast<double>(res.aggregate.framesSent) / secs
               : 0.0;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string json_path = bench::jsonPathFromArgs(argc, argv);
    bench::JsonReport report("abl_network");
    report.meta("backend",
                kernels::backendName(kernels::activeBackend()));
    report.meta("cpu", cpu::featureString());
    report.meta("bench_scale", strprintf("%g", bench::benchScale()));

    const std::uint64_t slots = bench::scaled(60, 10);

    sim::NetworkSpec spec = sim::networkPreset("cell-16");
    spec.numUsers = 32;
    spec.link.payloadBits = 600;
    spec.snrSpreadDb = 8.0;

    bench::banner("network scaling: 32 users, threads sweep");
    std::printf("%-8s %-10s %-14s %-9s\n", "threads", "frames",
                "frames/sec", "speedup");
    double base = 0.0;
    for (int threads : {1, 2, 4, 8}) {
        std::uint64_t frames = 0;
        double fps = framesPerSec(spec, slots, threads, &frames);
        if (threads == 1)
            base = fps;
        report.metric(strprintf("fps_u32_t%d", threads), fps,
                      "frames/s");
        std::printf("%-8d %-10llu %-14.1f %-9.2f\n", threads,
                    static_cast<unsigned long long>(frames), fps,
                    base > 0.0 ? fps / base : 0.0);
    }

    bench::banner("network scaling: users sweep at 4 threads");
    std::printf("%-8s %-10s %-14s %-12s\n", "users", "frames",
                "frames/sec", "goodput Mb/s");
    for (int users : {8, 16, 32, 64}) {
        sim::NetworkSpec s = spec;
        s.numUsers = users;
        sim::NetworkSim sim(s);
        bench::Stopwatch timer;
        sim::NetworkResult res = sim.run(slots, 4);
        double secs = timer.seconds();
        double fps = secs > 0.0
                         ? static_cast<double>(
                               res.aggregate.framesSent) /
                               secs
                         : 0.0;
        report.metric(strprintf("fps_t4_u%d", users), fps,
                      "frames/s");
        std::printf("%-8d %-10llu %-14.1f %-12.3f\n", users,
                    static_cast<unsigned long long>(
                        res.aggregate.framesSent),
                    fps, res.aggregateGoodputMbps());
    }

    // ---- fidelity A/B: equal cell, full vs analytic vs auto ------
    bench::banner(
        "fidelity A/B: 16 users, equal slots, full vs analytic "
        "vs auto");
    sim::NetworkSpec fspec = sim::networkPreset("cell-16");
    fspec.link.payloadBits = 600;
    fspec.snrSpreadDb = 8.0;
    fspec.fidelity.warmupSlots = 8;
    fspec.fidelity.refreshPeriod = 64;
    fspec.fidelity.refreshSlots = 2;
    const std::uint64_t fslots = bench::scaled(480, 240);

    // The offline calibration is shared across the modes (and
    // excluded from the timed region: it is a build artifact, paid
    // once per PHY configuration, not per run).
    auto table =
        std::make_shared<const softphy::CalibrationTable>(
            softphy::CalibrationTable::build(
                sim::NetworkSim::calibrationBuildSpec(fspec)));

    std::printf("%-10s %-12s %-16s %-9s %-10s\n", "mode",
                "user-slots", "user-slots/sec", "speedup",
                "full-PHY%");
    double uslots_full = 0.0;
    double speedup_analytic = 0.0;
    double speedup_auto = 0.0;
    for (sim::FidelityMode mode :
         {sim::FidelityMode::Full, sim::FidelityMode::Analytic,
          sim::FidelityMode::Auto}) {
        sim::NetworkSpec s = fspec;
        s.fidelity.mode = mode;
        sim::NetworkSim sim(s, table);
        // The analytic path finishes a cell in well under a
        // millisecond -- far inside timer noise -- so every mode
        // repeats its (deterministic, repeatable) run until the
        // measurement window is long enough to gate regressions on.
        std::uint64_t frames_acc = 0;
        std::uint64_t full_acc = 0;
        double secs = 0.0;
        bench::Stopwatch timer;
        do {
            sim::NetworkResult res = sim.run(fslots, 4);
            frames_acc += res.aggregate.framesSent;
            full_acc += res.aggregate.fullPhyFrames;
            secs = timer.seconds();
        } while (secs < 0.25);
        double uslots =
            secs > 0.0
                ? static_cast<double>(frames_acc) / secs
                : 0.0;
        double full_share =
            frames_acc ? 100.0 * static_cast<double>(full_acc) /
                             static_cast<double>(frames_acc)
                       : 0.0;
        const char *name = sim::kFidelityModeNames.name(mode).data();
        if (mode == sim::FidelityMode::Full)
            uslots_full = uslots;
        else if (mode == sim::FidelityMode::Analytic)
            speedup_analytic =
                uslots_full > 0.0 ? uslots / uslots_full : 0.0;
        else
            speedup_auto =
                uslots_full > 0.0 ? uslots / uslots_full : 0.0;
        report.metric(strprintf("uslots_%s", name), uslots,
                      "user-slots/s");
        std::printf("%-10s %-12llu %-16.0f %-9.2f %-10.1f\n", name,
                    static_cast<unsigned long long>(frames_acc),
                    uslots,
                    uslots_full > 0.0 ? uslots / uslots_full : 0.0,
                    full_share);
    }
    // The speedup column is printed, not a JSON metric: a ratio over
    // the full rung falls whenever the full rung gets faster, so it
    // cannot be gated. Each rung's own uslots_* is.

    // ---- the scale step: a cell-1k-sized analytic run ------------
    bench::banner("analytic at scale: 1024 users");
    {
        sim::NetworkSpec s = fspec;
        s.numUsers = 1024;
        s.fidelity.mode = sim::FidelityMode::Analytic;
        const std::uint64_t slots_1k = bench::scaled(240, 60);
        sim::NetworkSim sim(s, table);
        std::uint64_t frames_acc = 0;
        double secs = 0.0;
        double goodput = 0.0;
        bench::Stopwatch timer;
        do {
            sim::NetworkResult res = sim.run(slots_1k, 4);
            frames_acc += res.aggregate.framesSent;
            goodput = res.aggregateGoodputMbps();
            secs = timer.seconds();
        } while (secs < 0.25);
        double uslots =
            secs > 0.0
                ? static_cast<double>(frames_acc) / secs
                : 0.0;
        report.metric("uslots_1k_analytic", uslots, "user-slots/s");
        std::printf("%-8d users  %-10llu user-slots  %-14.0f "
                    "user-slots/sec  %.3f Mb/s cell goodput\n",
                    s.numUsers,
                    static_cast<unsigned long long>(frames_acc),
                    uslots, goodput);
    }

    report.writeIfRequested(json_path);

    // The hybrid-fidelity contract (measured ~800x / ~13x; the
    // floors leave room for slow CI hardware, not for a broken fast
    // path).
    int failures = 0;
    if (speedup_analytic < 10.0) {
        std::fprintf(stderr,
                     "FAIL: analytic fidelity speedup %.2fx below "
                     "the 10x floor\n",
                     speedup_analytic);
        ++failures;
    }
    if (speedup_auto < 5.0) {
        std::fprintf(stderr,
                     "FAIL: auto fidelity speedup %.2fx below the "
                     "5x floor\n",
                     speedup_auto);
        ++failures;
    }
    return failures ? 1 : 0;
}
