/**
 * @file
 * Benchmark plumbing that knows nothing about the simulator: an
 * in-memory span recorder, a 64-bit FNV-1a digest, medians, and the
 * forked-child runner that gives every timed operation a fresh
 * process (cold caches, its own peak RSS, and a wilis_fatal that
 * fails one operation instead of the whole benchmark).
 */

#ifndef WILIS_PERFBENCH_SUPPORT_HH
#define WILIS_PERFBENCH_SUPPORT_HH

#include <sys/resource.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <vector>

namespace perfbench {

/** Seconds on the monotonic clock (arbitrary epoch). */
inline double
nowS()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Median of @p v (0 for an empty vector). */
inline double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Incremental 64-bit FNV-1a digest over bytes and integers. */
class Digest
{
  public:
    void
    bytes(const void *p, size_t n)
    {
        const auto *b = static_cast<const unsigned char *>(p);
        for (size_t i = 0; i < n; ++i) {
            h_ ^= b[i];
            h_ *= 0x100000001b3ULL;
        }
    }
    void text(const std::string &s) { bytes(s.data(), s.size() + 1); }
    void u64(std::uint64_t v) { bytes(&v, sizeof(v)); }

    std::string
    hex() const
    {
        char buf[17];
        std::snprintf(buf, sizeof(buf), "%016" PRIx64, h_);
        return buf;
    }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/**
 * Spans kept in memory while a traced run executes: name, start,
 * end (seconds on nowS()'s clock) and the index of the enclosing
 * span (-1 at the top). Written out only after the run.
 */
class Tracer
{
  public:
    struct Span {
        std::string name;
        double start = 0.0;
        double end = 0.0;
        int parent = -1;
    };

    /** Run @p fn inside a span named @p name; returns fn's result. */
    template <typename F>
    auto
    span(const std::string &name, F &&fn) -> decltype(fn())
    {
        const int id = static_cast<int>(spans_.size());
        spans_.push_back({name, nowS(), 0.0, open_});
        const int saved = open_;
        open_ = id;
        struct Close {
            Tracer &t;
            int id;
            int saved;
            ~Close()
            {
                t.spans_[static_cast<size_t>(id)].end = nowS();
                t.open_ = saved;
            }
        } close{*this, id, saved};
        return fn();
    }

    /** Total duration of every span named @p name. */
    double
    total(const std::string &name) const
    {
        double s = 0.0;
        for (const Span &sp : spans_)
            if (sp.name == name)
                s += sp.end - sp.start;
        return s;
    }

    const std::vector<Span> &spans() const { return spans_; }

    /** Append a span recorded elsewhere, its parent index as is. */
    void adopt(const Span &s) { spans_.push_back(s); }

    /** Append all of @p other's spans, re-basing their parents. */
    void
    append(const Tracer &other)
    {
        const int base = static_cast<int>(spans_.size());
        for (Span s : other.spans_) {
            if (s.parent >= 0)
                s.parent += base;
            spans_.push_back(s);
        }
    }

  private:
    std::vector<Span> spans_;
    int open_ = -1;
};

/**
 * What one operation (a forked child) reports back: named values,
 * named digests and its spans, plus the exit status and peak RSS
 * the parent observes.
 */
struct Record {
    std::map<std::string, double> values;
    std::map<std::string, std::string> digests;
    Tracer tracer;
    bool ok = false;
    double peakRssMb = 0.0;

    double
    at(const std::string &key) const
    {
        auto it = values.find(key);
        return it == values.end() ? 0.0 : it->second;
    }

    std::string
    serialize() const
    {
        std::ostringstream out;
        out.precision(17);
        for (const auto &[k, v] : values)
            out << "v " << k << ' ' << v << '\n';
        for (const auto &[k, d] : digests)
            out << "d " << k << ' ' << d << '\n';
        for (const Tracer::Span &s : tracer.spans())
            out << "s " << s.name << ' ' << s.start << ' ' << s.end
                << ' ' << s.parent << '\n';
        out << "end\n";
        return out.str();
    }

    /** Parse serialize()'s text; false unless it is complete. */
    bool
    parse(const std::string &text)
    {
        std::istringstream in(text);
        std::string tag;
        while (in >> tag) {
            if (tag == "end")
                return true;
            std::string key;
            in >> key;
            if (tag == "v") {
                in >> values[key];
            } else if (tag == "d") {
                in >> digests[key];
            } else if (tag == "s") {
                Tracer::Span s;
                s.name = key;
                in >> s.start >> s.end >> s.parent;
                tracer.adopt(s);
            } else {
                return false;
            }
        }
        return false;
    }
};

/** Peak RSS in MB from a getrusage()/wait4() result. */
inline double
rssMb(const struct rusage &ru)
{
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

/**
 * Run @p fn in a forked child and collect its Record. The child
 * writes the record through a pipe and exits; any non-zero exit,
 * signal (a wilis_fatal or an abort) or truncated record leaves
 * ok = false. peakRssMb is the child's own peak plus whatever the
 * child adds to values["child_rss_mb"] (its own worker processes).
 * The parent must not be running threads of its own.
 */
inline Record
runChild(const std::function<void(Record &)> &fn)
{
    Record rec;
    int fds[2];
    if (pipe(fds) != 0)
        return rec;
    std::fflush(stdout);
    std::fflush(stderr);
    const pid_t pid = fork();
    if (pid < 0) {
        close(fds[0]);
        close(fds[1]);
        return rec;
    }
    if (pid == 0) {
        close(fds[0]);
        // An exception must not unwind the child back into the
        // parent's code: it fails this operation only.
        Record mine;
        try {
            fn(mine);
        } catch (...) {
            _exit(4);
        }
        const std::string text = mine.serialize();
        size_t off = 0;
        while (off < text.size()) {
            const ssize_t n =
                write(fds[1], text.data() + off, text.size() - off);
            if (n <= 0)
                _exit(3);
            off += static_cast<size_t>(n);
        }
        close(fds[1]);
        _exit(0);
    }
    close(fds[1]);
    std::string text;
    char buf[65536];
    for (;;) {
        const ssize_t n = read(fds[0], buf, sizeof(buf));
        if (n > 0)
            text.append(buf, static_cast<size_t>(n));
        else if (n == 0 || errno != EINTR)
            break;
    }
    close(fds[0]);
    int status = 0;
    struct rusage ru {};
    while (wait4(pid, &status, 0, &ru) < 0 && errno == EINTR) {
    }
    rec.ok = WIFEXITED(status) && WEXITSTATUS(status) == 0 &&
             rec.parse(text);
    rec.peakRssMb = rssMb(ru) + rec.at("child_rss_mb");
    return rec;
}

} // namespace perfbench

#endif // WILIS_PERFBENCH_SUPPORT_HH
