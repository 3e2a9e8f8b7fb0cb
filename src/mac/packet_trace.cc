#include "mac/packet_trace.hh"

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <optional>
#include <string_view>
#include <tuple>

#include "common/logging.hh"
#include "common/thread_pool.hh"

namespace wilis {
namespace mac {

namespace {

/** The version header pinning the committed fixtures' format. */
const char *const kHeader = "# wilis packet trace v1";
const char *const kColumns = "# slot cell user class seq event "
                             "arg0 arg1";

/** Trace-file event names, indexed by PacketEvent. */
constexpr std::string_view kEventNames[] = {
    "enq", "qdrop", "grant", "tx", "ack", "expire", "ho", "join",
    "leave"};

/**
 * Longest line formatEntry() writes: six integer columns of at most
 * 20 digits and a sign, two names, seven separators and a newline.
 */
constexpr size_t kMaxLine = 6 * 21 + 2 * 8 + 8;

/** Bytes the text writer buffers before handing them to its sink. */
constexpr size_t kChunk = 64 * 1024;

/** The trace-file name of @p ev; "?" outside the enum. */
std::string_view
eventName(PacketEvent ev)
{
    const auto i = static_cast<size_t>(ev);
    return i < std::size(kEventNames) ? kEventNames[i] : "?";
}

/** The event named @p name, or nullopt for an unknown name. */
std::optional<PacketEvent>
findEvent(std::string_view name)
{
    const auto *it =
        std::find(std::begin(kEventNames), std::end(kEventNames), name);
    if (it == std::end(kEventNames))
        return std::nullopt;
    return static_cast<PacketEvent>(it - std::begin(kEventNames));
}

/** The traffic class named @p name, or nullopt for an unknown name. */
std::optional<TrafficClass>
findClass(std::string_view name)
{
    for (TrafficClass c : {TrafficClass::Control, TrafficClass::Data})
        if (name == trafficClassName(c))
            return c;
    return std::nullopt;
}

/** Append @p name at @p p; returns the end. */
char *
putName(char *p, std::string_view name)
{
    std::memcpy(p, name.data(), name.size());
    return p + name.size();
}

/** Append @p v in decimal and a separator at @p p; returns the end. */
template <class T>
char *
putInt(char *p, T v, char sep)
{
    p = std::to_chars(p, p + 21, v).ptr;
    *p = sep;
    return p + 1;
}

/**
 * Write @p e as one text line, newline included, at @p p (which must
 * have kMaxLine bytes of room); returns the end. The one formatter
 * behind save(), toText() and diff().
 */
char *
formatEntry(char *p, const PacketTrace::Entry &e)
{
    p = putInt(p, e.slot, ' ');
    p = putInt(p, e.cell, ' ');
    p = putInt(p, e.user, ' ');
    p = putName(p, trafficClassName(e.cls));
    *p++ = ' ';
    p = putInt(p, e.seq, ' ');
    p = putName(p, eventName(e.event));
    *p++ = ' ';
    p = putInt(p, e.arg0, ' ');
    return putInt(p, e.arg1, '\n');
}

/** One entry as its text line, without the newline. */
std::string
entryText(const PacketTrace::Entry &e)
{
    char buf[kMaxLine];
    return std::string(buf, formatEntry(buf, e) - 1);
}

/**
 * Stream the versioned text of @p entries to @p sink, a callable
 * taking (const char *, size_t), in chunks of at most kChunk bytes:
 * the whole file never exists in memory at once.
 */
template <class Sink>
void
writeText(const std::vector<PacketTrace::Entry> &entries, Sink &&sink)
{
    std::vector<char> buf(kChunk);
    char *const begin = buf.data();
    char *p = begin;
    for (const char *line : {kHeader, kColumns}) {
        p = putName(p, line);
        *p++ = '\n';
    }
    for (const PacketTrace::Entry &e : entries) {
        if (static_cast<size_t>(begin + kChunk - p) < kMaxLine) {
            sink(begin, static_cast<size_t>(p - begin));
            p = begin;
        }
        p = formatEntry(p, e);
    }
    sink(begin, static_cast<size_t>(p - begin));
}

/** The canonical total order (see the file comment). */
bool
entryLess(const PacketTrace::Entry &a, const PacketTrace::Entry &b)
{
    return std::tie(a.cell, a.user, a.seq, a.slot, a.event, a.arg0,
                    a.arg1, a.cls) < std::tie(b.cell, b.user, b.seq,
                                              b.slot, b.event, b.arg0,
                                              b.arg1, b.cls);
}

/**
 * K-way merge of the individually sorted @p shards into @p out,
 * freeing each shard as soon as it is consumed. Each step copies the
 * smallest head's whole run up to the next shard's head, so shards
 * whose key ranges do not overlap -- every engine trace, sharded by
 * cell or by user -- merge as one block copy per shard. Under the
 * total order, equal entries are identical, so the result is the
 * sort of the concatenation whatever the shard boundaries.
 */
void
mergeShards(std::vector<std::vector<PacketTrace::Entry>> &shards,
            std::vector<PacketTrace::Entry> &out)
{
    using Entry = PacketTrace::Entry;
    struct Cursor {
        std::vector<Entry> *shard;
        size_t pos;
        const Entry &head() const { return (*shard)[pos]; }
    };
    // std heap functions keep the max on top; invert for a min-heap.
    const auto later = [](const Cursor &a, const Cursor &b) {
        return entryLess(b.head(), a.head());
    };
    size_t total = 0;
    std::vector<Cursor> heap;
    for (std::vector<Entry> &s : shards) {
        total += s.size();
        if (!s.empty())
            heap.push_back(Cursor{&s, 0});
    }
    out.reserve(total);
    std::make_heap(heap.begin(), heap.end(), later);
    while (!heap.empty()) {
        std::pop_heap(heap.begin(), heap.end(), later);
        Cursor c = heap.back();
        heap.pop_back();
        std::vector<Entry> &s = *c.shard;
        auto first = s.begin() + static_cast<std::ptrdiff_t>(c.pos);
        auto last = heap.empty()
                        ? s.end()
                        : std::upper_bound(first, s.end(),
                                           heap.front().head(),
                                           entryLess);
        out.insert(out.end(), first, last);
        if (last == s.end()) {
            std::vector<Entry>().swap(s);
        } else {
            c.pos = static_cast<size_t>(last - s.begin());
            heap.push_back(c);
            std::push_heap(heap.begin(), heap.end(), later);
        }
    }
}

/** A malformed line of a packet trace being loaded. */
[[noreturn]] void
badLine(const std::string &path, int lineno, std::string_view line,
        const std::string &what)
{
    wilis_fatal("%s:%d: malformed packet-trace line '%.*s': %s",
                path.c_str(), lineno, static_cast<int>(line.size()),
                line.data(), what.c_str());
}

/**
 * Parse one trace line, the reader twin of formatEntry(): exactly
 * eight whitespace-separated fields, every number in range for its
 * column, cell and user non-negative, known class and event names.
 * Anything else is fatal naming @p path and @p lineno.
 */
PacketTrace::Entry
parseEntry(std::string_view line, const std::string &path, int lineno)
{
    static const char *const kFields[] = {
        "slot", "cell", "user", "class", "seq", "event", "arg0", "arg1"};
    std::string_view field[8];
    size_t n = 0;
    size_t i = 0;
    for (;;) {
        while (i < line.size() && (line[i] == ' ' || line[i] == '\t'))
            ++i;
        if (i == line.size())
            break;
        const size_t j = std::min(line.find_first_of(" \t", i),
                                  line.size());
        if (n == 8)
            badLine(path, lineno, line, "more than 8 fields");
        field[n++] = line.substr(i, j - i);
        i = j;
    }
    if (n != 8)
        badLine(path, lineno, line,
                "expected 8 fields, got " + std::to_string(n));

    const auto number = [&](size_t k, auto &out) {
        const std::string_view f = field[k];
        const auto [end, ec] =
            std::from_chars(f.data(), f.data() + f.size(), out);
        if (ec == std::errc::result_out_of_range)
            badLine(path, lineno, line,
                    std::string(kFields[k]) + " '" + std::string(f) +
                        "' is out of range");
        if (ec != std::errc() || end != f.data() + f.size())
            badLine(path, lineno, line,
                    std::string(kFields[k]) + " '" + std::string(f) +
                        "' is not an integer");
    };
    PacketTrace::Entry e;
    number(0, e.slot);
    number(1, e.cell);
    number(2, e.user);
    number(4, e.seq);
    number(6, e.arg0);
    number(7, e.arg1);
    if (e.cell < 0 || e.user < 0)
        badLine(path, lineno, line,
                std::string(e.cell < 0 ? "cell" : "user") +
                    " id is negative");

    const std::optional<TrafficClass> cls = findClass(field[3]);
    if (!cls)
        badLine(path, lineno, line,
                "unknown traffic class '" + std::string(field[3]) +
                    "' (ctrl|data)");
    const std::optional<PacketEvent> ev = findEvent(field[5]);
    if (!ev)
        badLine(path, lineno, line,
                "unknown packet event '" + std::string(field[5]) + "'");
    e.cls = *cls;
    e.event = *ev;
    return e;
}

} // namespace

const char *
packetEventName(PacketEvent ev)
{
    return eventName(ev).data();
}

PacketEvent
packetEventFromName(const std::string &name)
{
    if (const std::optional<PacketEvent> ev = findEvent(name))
        return *ev;
    wilis_fatal("unknown packet event '%s' "
                "(enq|qdrop|grant|tx|ack|expire|ho|join|leave)",
                name.c_str());
}

PacketTrace::PacketTrace(int shards)
{
    wilis_assert(shards >= 1, "packet trace needs >= 1 shard");
    shards_.resize(static_cast<size_t>(shards));
}

void
PacketTrace::record(int shard, const Entry &e)
{
    // Shard ownership (one recording worker per shard, finalize only
    // after the team joins) is barrier-phase discipline: no lock to
    // annotate, so it is checked dynamically -- these panics catch
    // lifecycle misuse, the CI TSan leg catches two workers sharing
    // a shard index.
    wilis_assert(!finalized_,
                 "record() into a finalized packet trace");
    wilis_assert(shard >= 0 &&
                     shard < static_cast<int>(shards_.size()),
                 "trace shard %d out of %zu", shard,
                 shards_.size());
    shards_[static_cast<size_t>(shard)].push_back(e);
}

void
PacketTrace::finalize(int threads)
{
    if (finalized_)
        return;
    // Shards sort independently, so the merge is the same whichever
    // worker sorted what. The sort key is total, so the result is
    // independent of the per-shard generation order -- the property
    // every thread-count and engine equivalence test rides on.
    const auto sort_shard = [this](std::uint64_t i) {
        std::sort(shards_[i].begin(), shards_[i].end(), entryLess);
    };
    const size_t workers = std::min(
        static_cast<size_t>(std::max(threads, 1)), shards_.size());
    if (workers > 1) {
        // The calling thread is the pool's last worker.
        ThreadPool pool(static_cast<int>(workers) - 1);
        pool.parallelFor(shards_.size(), sort_shard);
    } else {
        for (size_t i = 0; i < shards_.size(); ++i)
            sort_shard(i);
    }
    mergeShards(shards_, entries_);
    finalized_ = true;
}

const std::vector<PacketTrace::Entry> &
PacketTrace::entries() const
{
    wilis_assert(finalized_,
                 "entries() before finalize() on a packet trace");
    return entries_;
}

std::string
PacketTrace::toText() const
{
    wilis_assert(finalized_,
                 "toText() before finalize() on a packet trace");
    std::string out;
    out.reserve(entries_.size() * 40 + 64);
    writeText(entries_, [&out](const char *data, size_t n) {
        out.append(data, n);
    });
    return out;
}

void
PacketTrace::save(const std::string &path) const
{
    wilis_assert(finalized_,
                 "save() before finalize() on a packet trace");
    const auto fail = [&path] {
        wilis_fatal("cannot write packet trace '%s': %s",
                    path.c_str(), std::strerror(errno));
    };
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (!f)
        fail();
    // writeText() hands over whole chunks; a stdio buffer would only
    // add a copy.
    std::setvbuf(f, nullptr, _IONBF, 0);
    writeText(entries_, [&](const char *data, size_t n) {
        if (std::fwrite(data, 1, n, f) != n)
            fail();
    });
    if (std::fclose(f) != 0)
        fail();
}

PacketTrace
PacketTrace::load(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        wilis_fatal("cannot read packet trace '%s': %s", path.c_str(),
                    std::strerror(errno));
    std::string text;
    std::vector<char> chunk(kChunk);
    size_t got;
    while ((got = std::fread(chunk.data(), 1, chunk.size(), f)) > 0)
        text.append(chunk.data(), got);
    const bool failed = std::ferror(f) != 0;
    const int err = errno;
    std::fclose(f);
    if (failed)
        wilis_fatal("cannot read packet trace '%s': %s", path.c_str(),
                    std::strerror(err));

    PacketTrace trace(1);
    bool saw_header = false;
    int lineno = 0;
    for (size_t pos = 0; pos < text.size();) {
        const size_t eol = std::min(text.find('\n', pos), text.size());
        std::string_view line(text.data() + pos, eol - pos);
        pos = eol + 1;
        ++lineno;
        if (!line.empty() && line.back() == '\r')
            line.remove_suffix(1);
        if (!saw_header) {
            if (line != kHeader)
                wilis_fatal("%s:%d: packet trace has version header "
                            "'%.*s', expected '%s'",
                            path.c_str(), lineno,
                            static_cast<int>(line.size()), line.data(),
                            kHeader);
            saw_header = true;
            continue;
        }
        if (line.empty() || line[0] == '#')
            continue;
        trace.record(0, parseEntry(line, path, lineno));
    }
    if (!saw_header)
        wilis_fatal("packet trace '%s' is empty (missing header "
                    "'%s')",
                    path.c_str(), kHeader);
    trace.finalize();
    return trace;
}

std::string
PacketTrace::diff(const PacketTrace &a, const PacketTrace &b)
{
    const std::vector<Entry> &ea = a.entries();
    const std::vector<Entry> &eb = b.entries();
    const size_t n = std::min(ea.size(), eb.size());
    for (size_t i = 0; i < n; ++i) {
        if (!(ea[i] == eb[i]))
            return "entry " + std::to_string(i) + " differs:\n  a: " +
                   entryText(ea[i]) + "\n  b: " + entryText(eb[i]);
    }
    if (ea.size() != eb.size())
        return "entry counts differ: a has " +
               std::to_string(ea.size()) + ", b has " +
               std::to_string(eb.size()) + " (first extra: " +
               entryText(ea.size() > eb.size() ? ea[n] : eb[n]) + ")";
    return std::string();
}

void
PacketTrace::saveState(SnapshotWriter &w) const
{
    wilis_assert(!finalized_,
                 "saveState() on a finalized packet trace");
    w.marker(0x43415254); // "TRAC"
    w.u64(shards_.size());
    for (const std::vector<Entry> &shard : shards_) {
        w.u64(shard.size());
        for (const Entry &e : shard) {
            w.u64(e.slot);
            w.i64(e.cell);
            w.i64(e.user);
            w.u8(static_cast<std::uint8_t>(e.cls));
            w.u64(e.seq);
            w.u8(static_cast<std::uint8_t>(e.event));
            w.i64(e.arg0);
            w.i64(e.arg1);
        }
    }
}

void
PacketTrace::loadState(SnapshotReader &r, int cells, int users)
{
    wilis_assert(!finalized_,
                 "loadState() on a finalized packet trace");
    r.marker(0x43415254);
    const std::uint64_t shards = r.u64();
    if (shards != shards_.size())
        r.fail(strprintf("%llu trace shards, the run records %zu",
                         static_cast<unsigned long long>(shards),
                         shards_.size()));
    // Serialized size of one entry: six 8-byte fields and two
    // one-byte enums.
    constexpr size_t kEntryBytes = 6 * 8 + 2;
    for (std::vector<Entry> &shard : shards_) {
        shard.clear();
        const std::uint64_t n = r.count(kEntryBytes);
        shard.reserve(static_cast<size_t>(n));
        for (std::uint64_t i = 0; i < n; ++i) {
            Entry e;
            e.slot = r.u64();
            e.cell = static_cast<std::int32_t>(
                r.i64In(0, cells, "trace entry cell"));
            e.user = static_cast<std::int32_t>(
                r.i64In(0, users, "trace entry user"));
            e.cls = static_cast<TrafficClass>(
                r.u8Below(kNumTrafficClasses, "trace entry class"));
            e.seq = r.u64();
            e.event = static_cast<PacketEvent>(
                r.u8Below(kNumPacketEvents, "trace entry event"));
            e.arg0 = r.i64();
            e.arg1 = r.i64();
            shard.push_back(e);
        }
    }
}

} // namespace mac
} // namespace wilis
