/**
 * @file
 * Shared helpers for the bench binaries: workload scaling via the
 * WILIS_BENCH_SCALE environment variable (default 1.0; raise it on
 * faster machines to tighten the statistics), wall-clock timing, the
 * host's software channel throughput, and machine-readable result
 * export -- every bench accepts `--json <path>` and writes its
 * headline numbers as a JSON report the CI perf-regression harness
 * (tools/check_bench_regression.py) consumes and tracks across PRs.
 */

#ifndef WILIS_BENCH_BENCH_UTIL_HH
#define WILIS_BENCH_BENCH_UTIL_HH

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "channel/channel.hh"
#include "common/json.hh"
#include "li/config.hh"

namespace wilis {
namespace bench {

/** Workload multiplier from WILIS_BENCH_SCALE (default 1.0). */
inline double
benchScale()
{
    const char *env = std::getenv("WILIS_BENCH_SCALE");
    if (!env)
        return 1.0;
    double v = std::atof(env);
    return v > 0.0 ? v : 1.0;
}

/** @return count scaled by benchScale(), at least @p min_count. */
inline std::uint64_t
scaled(std::uint64_t count, std::uint64_t min_count = 1)
{
    auto v = static_cast<std::uint64_t>(
        static_cast<double>(count) * benchScale());
    return v < min_count ? min_count : v;
}

/** Simple wall-clock stopwatch. */
class Stopwatch
{
  public:
    Stopwatch() : start(clock::now()) {}

    /** Seconds since construction or last reset. */
    double
    seconds() const
    {
        return std::chrono::duration<double>(clock::now() - start)
            .count();
    }

    void reset() { start = clock::now(); }

  private:
    using clock = std::chrono::steady_clock;
    clock::time_point start;
};

/**
 * Measure this host's software channel throughput in Msamples/s:
 * noise generation and fading application over one reused buffer,
 * for @p seconds of wall time (the channel's own `threads` key sets
 * its parallelism).
 */
inline double
measureChannelThroughputMsps(const std::string &channel_name,
                             const li::Config &channel_cfg,
                             double seconds)
{
    auto chan = channel::makeChannel(channel_name, channel_cfg);
    SampleVec buf(1 << 15, Sample(1.0, 0.0));
    Stopwatch sw;
    std::uint64_t samples = 0;
    std::uint64_t packet = 0;
    for (;;) {
        chan->apply(buf, packet++);
        samples += buf.size();
        const double elapsed = sw.seconds();
        if (elapsed >= seconds)
            return static_cast<double>(samples) / elapsed / 1e6;
    }
}

/** Section banner. */
inline void
banner(const std::string &title)
{
    std::printf("\n=== %s ===\n", title.c_str());
}

/**
 * Extract the `--json <path>` (or `--json=<path>`) argument.
 * @return the path, or "" when the flag is absent.
 */
inline std::string
jsonPathFromArgs(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--json" && i + 1 < argc)
            return argv[i + 1];
        if (arg.rfind("--json=", 0) == 0)
            return arg.substr(7);
    }
    return "";
}

/**
 * Machine-readable bench report. Collect metrics while the bench
 * runs, then write() once at the end:
 *
 *     { "bench": "...", "meta": {"k": "v", ...},
 *       "metrics": [ {"name": "...", "value": 1.5,
 *                     "unit": "Mb/s", "higher_is_better": true},
 *                    ... ] }
 *
 * Metric names are the regression-check contract: keep them stable
 * across PRs so the trajectory stays comparable, and only record
 * numbers whose regressions are meaningful (throughputs, speedups).
 */
class JsonReport
{
  public:
    explicit JsonReport(std::string bench_name)
        : bench(std::move(bench_name))
    {}

    /** Attach a context string (backend, scale, host...). */
    void
    meta(const std::string &key, const std::string &value)
    {
        metas.emplace_back(key, value);
    }

    /** Record one numeric result. */
    void
    metric(const std::string &name, double value,
           const std::string &unit, bool higher_is_better = true)
    {
        metrics.push_back({name, unit, value, higher_is_better});
    }

    /** Write the report; returns false (with a message) on failure. */
    bool
    write(const std::string &path) const
    {
        // Emission rides the shared deterministic writer
        // (common/json.hh) -- the same stable-key-order backend the
        // campaign RunReport uses, so every machine-readable report
        // in the tree serializes one way.
        json::JsonWriter w;
        w.beginObject();
        w.key("bench").value(bench);
        w.key("meta").beginObject();
        for (const auto &m : metas)
            w.key(m.first).value(m.second);
        w.endObject();
        w.key("metrics").beginArray();
        for (const Metric &m : metrics) {
            w.beginObject();
            w.key("name").value(m.name);
            w.key("value").valueDouble(m.value, "%.6g");
            w.key("unit").value(m.unit);
            w.key("higher_is_better").valueBool(m.higherIsBetter);
            w.endObject();
        }
        w.endArray();
        w.endObject();

        std::FILE *f = std::fopen(path.c_str(), "w");
        if (!f) {
            std::fprintf(stderr, "cannot write JSON report to %s\n",
                         path.c_str());
            return false;
        }
        const std::string &text = w.str();
        std::fwrite(text.data(), 1, text.size(), f);
        std::fclose(f);
        std::printf("wrote JSON report: %s\n", path.c_str());
        return true;
    }

    /** Write if @p path is non-empty (the --json plumbing). */
    bool
    writeIfRequested(const std::string &path) const
    {
        return path.empty() ? true : write(path);
    }

  private:
    struct Metric {
        std::string name;
        std::string unit;
        double value;
        bool higherIsBetter;
    };

    std::string bench;
    std::vector<std::pair<std::string, std::string>> metas;
    std::vector<Metric> metrics;
};

} // namespace bench
} // namespace wilis

#endif // WILIS_BENCH_BENCH_UTIL_HH
