#include "mac/packet_trace.hh"

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string_view>
#include <tuple>
#include <utility>

#include "common/lockstep.hh"
#include "common/logging.hh"

namespace wilis {
namespace mac {

namespace {

/** The version header pinning the committed fixtures' format. */
const char *const kHeader = "# wilis packet trace v1";
const char *const kColumns = "# slot cell user class seq event "
                             "arg0 arg1";

/** Longest 32-bit integer column: ten digits and a sign. */
constexpr size_t kMaxInt = 11;

/**
 * Longest line formatEntry() writes: six integer columns, two names,
 * seven separators and a newline.
 */
constexpr size_t kMaxLine = 6 * kMaxInt + 2 * 8 + 8;

/** Bytes the text writer buffers before handing them to its sink. */
constexpr size_t kChunk = 64 * 1024;

/**
 * Entries save() formats per block: at most kSaveBlock * kMaxLine
 * bytes of text, typically ~70 KiB.
 */
constexpr size_t kSaveBlock = 2048;

/**
 * A lane's (user, seq) key space may span at most this many times
 * its entry count to be counting-sorted; sparser lanes are
 * comparison-sorted.
 */
constexpr std::uint64_t kMaxSparsity = 4;

/** Largest tie bucket insertion-sorted; bigger ones use std::sort. */
constexpr std::ptrdiff_t kInsertionMax = 32;

using Entry = PacketTrace::Entry;
static_assert(sizeof(Entry) <= 28, "trace entries pack into 28 bytes");

/** Append @p name at @p p; returns the end. */
char *
putName(char *p, std::string_view name)
{
    std::memcpy(p, name.data(), name.size());
    return p + name.size();
}

/** Append the two header lines at @p p; returns the end. */
char *
putHeader(char *p)
{
    for (const char *line : {kHeader, kColumns}) {
        p = putName(p, line);
        *p++ = '\n';
    }
    return p;
}

/** Append @p v in decimal and a separator at @p p; returns the end. */
template <class T>
char *
putInt(char *p, T v, char sep)
{
    static_assert(sizeof(T) == 4, "trace columns are 32-bit");
    p = std::to_chars(p, p + kMaxInt, v).ptr;
    *p = sep;
    return p + 1;
}

/**
 * Write @p e as one text line, newline included, at @p p (which must
 * have kMaxLine bytes of room); returns the end. The one formatter
 * behind save(), toText() and diff().
 */
char *
formatEntry(char *p, const Entry &e)
{
    p = putInt(p, e.slot, ' ');
    p = putInt(p, e.cell, ' ');
    p = putInt(p, e.user, ' ');
    p = putName(p, kTrafficClassNames.name(e.cls));
    *p++ = ' ';
    p = putInt(p, e.seq, ' ');
    p = putName(p, kPacketEventNames.name(e.event));
    *p++ = ' ';
    p = putInt(p, e.arg0, ' ');
    return putInt(p, e.arg1, '\n');
}

/** One entry as its text line, without the newline. */
std::string
entryText(const Entry &e)
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
writeText(std::span<const Entry> entries, Sink &&sink)
{
    std::vector<char> buf(kChunk);
    char *const begin = buf.data();
    char *p = putHeader(begin);
    for (const Entry &e : entries) {
        if (static_cast<size_t>(begin + kChunk - p) < kMaxLine) {
            sink(begin, static_cast<size_t>(p - begin));
            p = begin;
        }
        p = formatEntry(p, e);
    }
    sink(begin, static_cast<size_t>(p - begin));
}

/**
 * The same bytes as writeText(), formatted in parallel: workers
 * 1..@p formatters each format one block of kSaveBlock entries per
 * round into their half of a double buffer, while worker 0 hands
 * the previous round's blocks to @p sink in order. One barrier per
 * round passes the buffers over, so at most 2 * @p formatters
 * blocks of text exist at once.
 */
template <class Sink>
void
writeTextParallel(std::span<const Entry> entries, int formatters,
                  Sink &&sink)
{
    char header[2 * kMaxLine];
    sink(header, static_cast<size_t>(putHeader(header) - header));
    const size_t f = static_cast<size_t>(formatters);
    const size_t blocks = (entries.size() + kSaveBlock - 1) / kSaveBlock;
    const size_t rounds = (blocks + f - 1) / f;
    std::vector<std::unique_ptr<char[]>> buf(2 * f);
    std::vector<size_t> len(2 * f, 0);
    LockstepTeam team(formatters + 1);
    team.run([&](int w) {
        for (size_t r = 0; r <= rounds; ++r) {
            if (w == 0 && r > 0) {
                for (size_t j = 0; j < f; ++j) {
                    const size_t k = ((r - 1) & 1) * f + j;
                    if (len[k] > 0)
                        sink(buf[k].get(), len[k]);
                }
            } else if (w > 0 && r < rounds) {
                const size_t b = r * f + static_cast<size_t>(w - 1);
                const size_t k = (r & 1) * f + static_cast<size_t>(w - 1);
                len[k] = 0;
                if (b < blocks) {
                    if (!buf[k])
                        buf[k].reset(new char[kSaveBlock * kMaxLine]);
                    char *p = buf[k].get();
                    for (const Entry &e : entries.subspan(
                             b * kSaveBlock,
                             std::min(kSaveBlock,
                                      entries.size() - b * kSaveBlock)))
                        p = formatEntry(p, e);
                    len[k] = static_cast<size_t>(p - buf[k].get());
                }
            }
            team.barrier();
        }
    });
}

/** The canonical total order (see the file comment). */
bool
entryLess(const Entry &a, const Entry &b)
{
    return std::tie(a.cell, a.user, a.seq, a.slot, a.event, a.arg0,
                    a.arg1, a.cls) < std::tie(b.cell, b.user, b.seq,
                                              b.slot, b.event, b.arg0,
                                              b.arg1, b.cls);
}

/**
 * Order one (user, seq) bucket by entryLess. Recording order is not
 * canonical within a bucket (a handover at seq 0 is recorded before
 * packet 0's enqueue in the same slot), but buckets are a handful
 * of mostly ordered entries, so insertion sort is linear in
 * practice; a large hand-built bucket gets std::sort.
 */
void
orderTies(Entry *first, Entry *last)
{
    if (last - first > kInsertionMax) {
        std::sort(first, last, entryLess);
        return;
    }
    for (Entry *i = first + 1; i < last; ++i) {
        const Entry e = *i;
        Entry *j = i;
        for (; j != first && entryLess(e, j[-1]); --j)
            *j = j[-1];
        *j = e;
    }
}

/**
 * @p v, read from a snapshot, narrowed to column type T; a value the
 * column cannot hold fails @p r naming the column.
 */
template <class T, class V>
T
snapshotColumn(const SnapshotReader &r, V v, const char *column)
{
    if (!std::in_range<T>(v))
        r.fail(strprintf("trace entry %s %s out of range", column,
                         std::to_string(v).c_str()));
    return static_cast<T>(v);
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
Entry
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
    Entry e;
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

    const std::optional<TrafficClass> cls =
        kTrafficClassNames.find(field[3]);
    if (!cls)
        badLine(path, lineno, line,
                "unknown traffic class '" + std::string(field[3]) +
                    "' (ctrl|data)");
    const std::optional<PacketEvent> ev =
        kPacketEventNames.find(field[5]);
    if (!ev)
        badLine(path, lineno, line,
                "unknown packet event '" + std::string(field[5]) + "'");
    e.cls = *cls;
    e.event = *ev;
    return e;
}

} // namespace

PacketTrace::PacketTrace(int shards)
{
    wilis_assert(shards >= 1, "packet trace needs >= 1 shard");
    lanes_.resize(static_cast<size_t>(shards));
}

void
PacketTrace::sortLane(Lane &lane, Entry *out)
{
    const size_t n = lane.size();
    if (n == 0)
        return;
    // Visit every recorded entry, block by block; @p done(b) runs
    // after block b.
    const auto each = [&lane](auto &&fn, auto &&done) {
        for (size_t b = 0; b < lane.blocks.size(); ++b) {
            const Entry *p = lane.blocks[b].get();
            const Entry *const end = p + lane.blockSize(b);
            for (; p != end; ++p)
                fn(*p);
            done(b);
        }
    };
    const auto keep = [](size_t) {};
    const auto free_block = [&lane](size_t b) { lane.blocks[b].reset(); };
    // The fallback: copy the blocks out, then one comparison sort.
    const auto copy_and_sort = [&] {
        Entry *o = out;
        each([&o](const Entry &e) { *o++ = e; }, free_block);
        lane.clear();
        std::sort(out, out + n, entryLess);
    };

    const Entry &first = lane.blocks.front()[0];
    std::int32_t cell_lo = first.cell, cell_hi = first.cell;
    std::int32_t user_lo = first.user, user_hi = first.user;
    each([&](const Entry &e) {
        cell_lo = std::min(cell_lo, e.cell);
        cell_hi = std::max(cell_hi, e.cell);
        user_lo = std::min(user_lo, e.user);
        user_hi = std::max(user_hi, e.user);
    }, keep);
    const std::uint64_t budget = kMaxSparsity * n;
    const std::uint64_t user_span = static_cast<std::uint64_t>(
        static_cast<std::int64_t>(user_hi) - user_lo);
    if (cell_lo != cell_hi || n > UINT32_MAX || user_span >= budget)
        return copy_and_sort();

    // Each user's seq range, then one bucket per (user, seq) in
    // canonical order: key = off[user] + seq, wrapping arithmetic
    // folding in the user's first bucket and lowest seq.
    const size_t users = static_cast<size_t>(user_span) + 1;
    // Wrapping size_t arithmetic: user - user_lo without int32
    // overflow.
    const size_t user_base = static_cast<size_t>(user_lo);
    std::vector<std::uint32_t> seq_lo(users, UINT32_MAX);
    std::vector<std::uint32_t> seq_hi(users, 0);
    each([&](const Entry &e) {
        const size_t u = static_cast<size_t>(e.user) - user_base;
        seq_lo[u] = std::min(seq_lo[u], e.seq);
        seq_hi[u] = std::max(seq_hi[u], e.seq);
    }, keep);
    std::vector<std::uint64_t> off(users, 0);
    std::uint64_t buckets = 0;
    for (size_t u = 0; u < users; ++u) {
        if (seq_lo[u] > seq_hi[u])
            continue;
        const std::uint64_t span = seq_hi[u] - seq_lo[u];
        if (span >= budget - buckets)
            return copy_and_sort();
        off[u] = buckets - seq_lo[u];
        buckets += span + 1;
    }
    const auto key = [&](const Entry &e) {
        return static_cast<size_t>(
            off[static_cast<size_t>(e.user) - user_base] + e.seq);
    };

    // Counting sort: pos[k] becomes bucket k's first slot, then,
    // after the scatter, its end.
    std::vector<std::uint32_t> pos(static_cast<size_t>(buckets) + 1, 0);
    each([&](const Entry &e) { ++pos[key(e) + 1]; }, keep);
    for (size_t k = 1; k < pos.size(); ++k)
        pos[k] += pos[k - 1];
    each([&](const Entry &e) { out[pos[key(e)]++] = e; }, free_block);
    lane.clear();
    std::uint32_t begin = 0;
    for (size_t k = 0; k < buckets; ++k) {
        if (pos[k] - begin > 1)
            orderTies(out + begin, out + pos[k]);
        begin = pos[k];
    }
}

void
PacketTrace::finalize(int threads)
{
    if (finalized_)
        return;
    threads_ = std::max(threads, 1);
    std::vector<size_t> offset(lanes_.size() + 1, 0);
    for (size_t i = 0; i < lanes_.size(); ++i)
        offset[i + 1] = offset[i] + lanes_[i].size();
    size_ = offset.back();
    // Every lane sorts straight into its own slice of the one final
    // array, so the worker that fills a slice touches its pages
    // first. The sort key is total, so the result is independent of
    // the per-lane recording order and of which worker sorted what
    // -- the property every thread-count and engine equivalence
    // test rides on.
    entries_ = allocEntries(size_);
    LockstepTeam team(LockstepTeam::workerCount(threads_, lanes_.size()));
    team.forEach(lanes_.size(), [this, &offset](int, std::uint64_t i) {
        sortLane(lanes_[i], entries_.get() + offset[i]);
    });

    // Engine lanes hold disjoint key ranges in lane order (one cell
    // each, or one user each of one cell), so the sorted slices
    // already concatenate in canonical order. Lanes whose ranges
    // overlap (hand-built traces) get one sort of the whole array;
    // the key is total, so the lane boundaries cannot show.
    const Entry *prev_last = nullptr;
    for (size_t i = 0; i < lanes_.size(); ++i) {
        if (offset[i] == offset[i + 1])
            continue;
        const Entry *first = entries_.get() + offset[i];
        if (prev_last && entryLess(*first, *prev_last)) {
            std::sort(entries_.get(), entries_.get() + size_, entryLess);
            break;
        }
        prev_last = entries_.get() + offset[i + 1] - 1;
    }
    lanes_.clear();
    finalized_ = true;
}

std::span<const PacketTrace::Entry>
PacketTrace::entries() const
{
    wilis_assert(finalized_,
                 "entries() before finalize() on a packet trace");
    return {entries_.get(), size_};
}

std::string
PacketTrace::toText() const
{
    std::string out;
    out.reserve(entries().size() * 40 + 64);
    writeText(entries(), [&out](const char *data, size_t n) {
        out.append(data, n);
    });
    return out;
}

void
PacketTrace::save(const std::string &path) const
{
    wilis_assert(finalized_,
                 "save() before finalize() on a packet trace");
    const auto fail = [&path](int err) {
        wilis_fatal("cannot write packet trace '%s': %s",
                    path.c_str(), std::strerror(err));
    };
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (!f)
        fail(errno);
    // The writers hand over whole chunks; a stdio buffer would only
    // add a copy. The first write error is kept and reported once
    // every worker has stopped.
    std::setvbuf(f, nullptr, _IONBF, 0);
    int err = 0;
    const auto sink = [&](const char *data, size_t n) {
        if (err == 0 && std::fwrite(data, 1, n, f) != n)
            err = errno != 0 ? errno : EIO;
    };
    const size_t blocks = (size_ + kSaveBlock - 1) / kSaveBlock;
    const int formatters = static_cast<int>(
        std::min(static_cast<size_t>(threads_ - 1), blocks));
    if (formatters > 0)
        writeTextParallel(entries(), formatters, sink);
    else
        writeText(entries(), sink);
    if (err != 0) {
        std::fclose(f);
        fail(err);
    }
    if (std::fclose(f) != 0)
        fail(errno);
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
    const std::span<const Entry> ea = a.entries();
    const std::span<const Entry> eb = b.entries();
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
    w.u64(lanes_.size());
    for (const Lane &lane : lanes_) {
        w.u64(lane.size());
        for (size_t b = 0; b < lane.blocks.size(); ++b) {
            const Entry *p = lane.blocks[b].get();
            for (const Entry *e = p; e != p + lane.blockSize(b); ++e) {
                w.u64(e->slot);
                w.i64(e->cell);
                w.i64(e->user);
                w.u8(static_cast<std::uint8_t>(e->cls));
                w.u64(e->seq);
                w.u8(static_cast<std::uint8_t>(e->event));
                w.i64(e->arg0);
                w.i64(e->arg1);
            }
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
    if (shards != lanes_.size())
        r.fail(strprintf("%llu trace shards, the run records %zu",
                         static_cast<unsigned long long>(shards),
                         lanes_.size()));
    // Serialized size of one entry: six 8-byte fields and two
    // one-byte enums. The wire keeps 64-bit columns; each narrowed
    // field is range-checked on the way in.
    constexpr size_t kEntryBytes = 6 * 8 + 2;
    for (size_t shard = 0; shard < lanes_.size(); ++shard) {
        lanes_[shard].clear();
        const std::uint64_t n = r.count(kEntryBytes);
        for (std::uint64_t i = 0; i < n; ++i) {
            Entry e;
            e.slot = snapshotColumn<std::uint32_t>(r, r.u64(), "slot");
            e.cell = static_cast<std::int32_t>(
                r.i64In(0, cells, "trace entry cell"));
            e.user = static_cast<std::int32_t>(
                r.i64In(0, users, "trace entry user"));
            e.cls = static_cast<TrafficClass>(
                r.u8Below(kTrafficClassNames.values, "trace entry class"));
            e.seq = snapshotColumn<std::uint32_t>(r, r.u64(), "seq");
            e.event = static_cast<PacketEvent>(
                r.u8Below(kPacketEventNames.values, "trace entry event"));
            e.arg0 = snapshotColumn<std::int32_t>(r, r.i64(), "arg0");
            e.arg1 = snapshotColumn<std::int32_t>(r, r.i64(), "arg1");
            record(static_cast<int>(shard), e);
        }
    }
}

} // namespace mac
} // namespace wilis
