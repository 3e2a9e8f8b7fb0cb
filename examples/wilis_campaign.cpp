/**
 * @file
 * The multi-process campaign driver: split a NetworkSpec campaign
 * (its `reps=N` replications) across worker *processes*, collect the
 * per-shard JSON reports, and merge them deterministically
 * (sim/campaign.hh). The workers are `wilis_cli --network ...
 * --shard i/N` invocations of the sibling binary, so shard i of N
 * computes exactly the units a one-process run would -- the merged
 * report is byte-identical for any shard count, which CI enforces
 * by diffing a 1-shard against a 4-shard run.
 *
 * Usage:
 *   ./build/wilis_campaign <network-spec-arg> [--slots N]
 *       [--threads N] [--shards N] [--report FILE] [--json FILE]
 *
 * <network-spec-arg> is anything sim::parseNetworkSpecArg() takes:
 * a network preset name ("dense-urban-10k,reps=4"), an inline
 * key=value list, or a config file. --report writes the merged
 * campaign report; --json writes a bench-style metrics report
 * (wall time, shard count) for the bench-trajectory job.
 */

#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.hh"
#include "common/logging.hh"
#include "li/config.hh"
#include "sim/campaign.hh"
#include "sim/scenario.hh"

using namespace wilis;

namespace {

/** Directory of this binary; the worker binary lives next to it. */
std::string
binaryDir(const char *argv0)
{
    const std::string self(argv0);
    const size_t slash = self.rfind('/');
    return slash == std::string::npos ? std::string(".")
                                      : self.substr(0, slash);
}

/**
 * Spawn one worker: fork + execv (no shell -- the canonical config
 * string is passed as a single argv entry, so no quoting layer can
 * corrupt it). Returns the child pid.
 */
pid_t
spawnWorker(const std::string &binary,
            const std::vector<std::string> &args)
{
    const pid_t pid = fork();
    if (pid < 0)
        wilis_fatal("fork failed: %s", std::strerror(errno));
    if (pid == 0) {
        std::vector<char *> argv;
        argv.push_back(const_cast<char *>(binary.c_str()));
        for (const std::string &a : args)
            argv.push_back(const_cast<char *>(a.c_str()));
        argv.push_back(nullptr);
        execv(binary.c_str(), argv.data());
        std::fprintf(stderr, "exec %s failed: %s\n", binary.c_str(),
                     std::strerror(errno));
        _exit(127);
    }
    return pid;
}

} // namespace

int
main(int argc, char **argv)
{
    // Every flag value, keyed by the flag: li::Config's strict
    // getters make a malformed or out-of-range value fatal, naming
    // the flag.
    std::string spec_arg;
    li::Config flags;
    for (int a = 1; a < argc; ++a) {
        const std::string flag = argv[a];
        if (flag == "--slots" || flag == "--threads" ||
            flag == "--shards" || flag == "--report" ||
            flag == "--json") {
            if (a + 1 >= argc)
                wilis_fatal("%s needs an argument", flag.c_str());
            flags.set(flag, argv[++a]);
        } else if (spec_arg.empty() && flag.rfind("--", 0) != 0) {
            spec_arg = flag;
        } else {
            wilis_fatal("unknown campaign flag '%s'", flag.c_str());
        }
    }
    if (spec_arg.empty()) {
        std::fprintf(stderr,
                     "usage: %s <network-spec-arg> [--slots N] "
                     "[--threads N] [--shards N] [--report FILE] "
                     "[--json FILE]\n",
                     argv[0]);
        return 2;
    }
    const std::uint64_t slots = flags.getUint64("--slots", 120);
    const int threads =
        static_cast<int>(flags.getInt("--threads", 0, 0, INT_MAX));
    const int shards =
        static_cast<int>(flags.getInt("--shards", 1, 1, INT_MAX));
    const std::string report_file = flags.getString("--report");
    const std::string json_file = flags.getString("--json");

    // Resolve the spec once, then ship its *canonical* config string
    // to every worker: each shard parses the identical campaign
    // description, so their reports agree on the config field the
    // merge validates.
    const sim::NetworkSpec spec = sim::parseNetworkSpecArg(spec_arg);
    const std::string canonical = spec.toConfig().toString();
    const std::string worker = binaryDir(argv[0]) + "/wilis_cli";

    char tmpl[] = "/tmp/wilis_campaign.XXXXXX";
    const char *tmpdir = mkdtemp(tmpl);
    if (tmpdir == nullptr)
        wilis_fatal("mkdtemp failed: %s", std::strerror(errno));

    bench::Stopwatch sw;
    std::vector<pid_t> pids;
    std::vector<std::string> shard_files;
    for (int i = 0; i < shards; ++i) {
        const std::string out = std::string(tmpdir) + "/shard_" +
                                std::to_string(i) + ".json";
        shard_files.push_back(out);
        std::vector<std::string> args;
        args.push_back("--network");
        args.push_back(canonical);
        args.push_back("--slots");
        args.push_back(std::to_string(slots));
        args.push_back("--threads");
        args.push_back(std::to_string(threads));
        args.push_back("--shard");
        args.push_back(std::to_string(i) + "/" +
                       std::to_string(shards));
        args.push_back("--report");
        args.push_back(out);
        pids.push_back(spawnWorker(worker, args));
    }
    for (size_t i = 0; i < pids.size(); ++i) {
        int status = 0;
        if (waitpid(pids[i], &status, 0) < 0)
            wilis_fatal("waitpid failed: %s", std::strerror(errno));
        if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
            wilis_fatal("campaign worker %zu failed (status %d)", i,
                        status);
    }

    std::vector<sim::RunReport> shard_reports;
    for (const std::string &f : shard_files) {
        shard_reports.push_back(sim::RunReport::load(f));
        std::remove(f.c_str());
    }
    rmdir(tmpdir);

    const sim::RunReport merged = sim::mergeReports(shard_reports);
    const double wall_s = sw.seconds();

    const sim::UnitReport &agg = merged.aggregate;
    const double slots_done = static_cast<double>(slots) *
                              static_cast<double>(merged.unitsTotal);
    std::printf("campaign: %d unit(s) x %llu slots over %d "
                "shard(s) in %.2f s\n",
                merged.unitsTotal,
                static_cast<unsigned long long>(slots), shards,
                wall_s);
    std::printf("aggregate: %d cells, %d users/rep, %llu delivered, "
                "%llu dropped, goodput %.3f Mb/s per rep\n",
                agg.cells, agg.users,
                static_cast<unsigned long long>(agg.stats.delivered),
                static_cast<unsigned long long>(agg.stats.dropped),
                agg.stats.goodputMbps(
                    static_cast<std::uint64_t>(slots_done),
                    spec.frameIntervalUs));
    if (!report_file.empty()) {
        merged.save(report_file);
        std::printf("merged report -> %s\n", report_file.c_str());
    }

    if (!json_file.empty()) {
        bench::JsonReport rep("campaign");
        rep.meta("config", canonical);
        rep.meta("slots", std::to_string(slots));
        rep.meta("shards", std::to_string(shards));
        rep.metric("wall_s", wall_s, "s", false);
        rep.metric("unit_slots_per_s",
                   wall_s > 0.0 ? slots_done / wall_s : 0.0,
                   "slots/s", true);
        rep.write(json_file);
    }
    return 0;
}
