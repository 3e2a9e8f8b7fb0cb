#include "common/snapshot.hh"

#include <bit>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/logging.hh"

namespace wilis {

namespace {

// Eight bytes of magic: a snapshot is not a config file, a trace or
// a report, and feeding it to the wrong reader must fail on byte 0.
const char kMagic[8] = {'W', 'L', 'S', 'N', 'A', 'P', '0', '\n'};

// Container format version: bump when the header layout itself (not
// a caller's payload) changes shape.
constexpr std::uint32_t kContainerVersion = 1;

} // namespace

// ---------------------------------------------------- SnapshotWriter

SnapshotWriter::SnapshotWriter(std::uint32_t payload_version,
                               const std::string &fingerprint)
{
    buf.append(kMagic, sizeof(kMagic));
    u32(kContainerVersion);
    u32(payload_version);
    str(fingerprint);
}

void
SnapshotWriter::u8(std::uint8_t v)
{
    buf += static_cast<char>(v);
}

void
SnapshotWriter::u32(std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        buf += static_cast<char>((v >> (8 * i)) & 0xFF);
}

void
SnapshotWriter::u64(std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        buf += static_cast<char>((v >> (8 * i)) & 0xFF);
}

void
SnapshotWriter::i64(std::int64_t v)
{
    u64(static_cast<std::uint64_t>(v));
}

void
SnapshotWriter::f64(double v)
{
    u64(std::bit_cast<std::uint64_t>(v));
}

void
SnapshotWriter::str(const std::string &v)
{
    u64(v.size());
    buf += v;
}

void
SnapshotWriter::marker(std::uint32_t tag)
{
    u32(tag);
}

void
SnapshotWriter::save(const std::string &path) const
{
    const std::string tmp = path + ".tmp";
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out.good())
            wilis_fatal("cannot write snapshot '%s'", tmp.c_str());
        out.write(buf.data(),
                  static_cast<std::streamsize>(buf.size()));
        out.flush();
        if (!out.good())
            wilis_fatal("short write on snapshot '%s'", tmp.c_str());
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0)
        wilis_fatal("cannot rename snapshot '%s' -> '%s'",
                    tmp.c_str(), path.c_str());
}

// ---------------------------------------------------- SnapshotReader

SnapshotReader::SnapshotReader(std::string bytes, std::string origin,
                               std::uint32_t payload_version,
                               const std::string &fingerprint)
    : buf(std::move(bytes)), origin_(std::move(origin))
{
    need(sizeof(kMagic));
    if (buf.compare(0, sizeof(kMagic), kMagic, sizeof(kMagic)) != 0)
        wilis_fatal("'%s' is not a WiLIS snapshot (bad magic)",
                    origin_.c_str());
    pos = sizeof(kMagic);
    const std::uint32_t container = u32();
    if (container != kContainerVersion)
        wilis_fatal("snapshot '%s': container version %u, this "
                    "build reads %u",
                    origin_.c_str(), container, kContainerVersion);
    const std::uint32_t payload = u32();
    if (payload != payload_version)
        wilis_fatal("snapshot '%s': payload version %u, this build "
                    "expects %u",
                    origin_.c_str(), payload, payload_version);
    const std::string fp = str();
    if (fp != fingerprint)
        wilis_fatal("snapshot '%s' was written for a different "
                    "spec:\n  snapshot: %s\n  resuming: %s",
                    origin_.c_str(), fp.c_str(),
                    fingerprint.c_str());
}

SnapshotReader::SnapshotReader(const std::string &path,
                               std::uint32_t payload_version,
                               const std::string &fingerprint)
    : SnapshotReader(
          [&path] {
              std::ifstream in(path, std::ios::binary);
              if (!in.good())
                  wilis_fatal("cannot read snapshot '%s'",
                              path.c_str());
              std::ostringstream ss;
              ss << in.rdbuf();
              return ss.str();
          }(),
          path, payload_version, fingerprint)
{}

SnapshotReader
SnapshotReader::fromBytes(const std::string &bytes,
                          std::uint32_t payload_version,
                          const std::string &fingerprint)
{
    return SnapshotReader(bytes, "<memory>", payload_version,
                          fingerprint);
}

void
SnapshotReader::need(size_t n) const
{
    if (n > buf.size() - pos)
        wilis_fatal("snapshot '%s' is truncated: need %zu bytes at "
                    "offset %zu, have %zu",
                    origin_.c_str(), n, pos, buf.size());
}

std::uint8_t
SnapshotReader::u8()
{
    need(1);
    return static_cast<std::uint8_t>(buf[pos++]);
}

std::uint32_t
SnapshotReader::u32()
{
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<std::uint32_t>(
                 static_cast<std::uint8_t>(buf[pos + i]))
             << (8 * i);
    pos += 4;
    return v;
}

std::uint64_t
SnapshotReader::u64()
{
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(
                 static_cast<std::uint8_t>(buf[pos + i]))
             << (8 * i);
    pos += 8;
    return v;
}

std::int64_t
SnapshotReader::i64()
{
    return static_cast<std::int64_t>(u64());
}

double
SnapshotReader::f64()
{
    return std::bit_cast<double>(u64());
}

std::string
SnapshotReader::str()
{
    const std::uint64_t n = u64();
    need(static_cast<size_t>(n));
    std::string v = buf.substr(pos, static_cast<size_t>(n));
    pos += static_cast<size_t>(n);
    return v;
}

void
SnapshotReader::marker(std::uint32_t tag)
{
    const std::uint32_t got = u32();
    if (got != tag)
        wilis_fatal("snapshot '%s': section marker mismatch at "
                    "offset %zu (expected 0x%08x, found 0x%08x) -- "
                    "writer/reader field skew",
                    origin_.c_str(), pos - 4, tag, got);
}

std::uint64_t
SnapshotReader::count(size_t min_bytes)
{
    const std::uint64_t n = u64();
    if (n > (buf.size() - pos) / min_bytes)
        fail(strprintf("count %llu of %zu-byte elements overruns "
                       "the %zu bytes left",
                       static_cast<unsigned long long>(n), min_bytes,
                       buf.size() - pos));
    return n;
}

std::uint8_t
SnapshotReader::u8Below(unsigned bound, const char *what)
{
    const std::uint8_t v = u8();
    if (v >= bound)
        fail(strprintf("%s %u out of range [0, %u)", what, v, bound));
    return v;
}

std::int64_t
SnapshotReader::i64In(std::int64_t lo, std::int64_t hi,
                      const char *what)
{
    const std::int64_t v = i64();
    if (v < lo || v >= hi)
        fail(strprintf("%s %lld outside [%lld, %lld)", what,
                       static_cast<long long>(v),
                       static_cast<long long>(lo),
                       static_cast<long long>(hi)));
    return v;
}

void
SnapshotReader::fail(const std::string &what) const
{
    wilis_fatal("snapshot '%s': %s (offset %zu)", origin_.c_str(),
                what.c_str(), pos);
}

void
SnapshotReader::done() const
{
    if (pos != buf.size())
        wilis_fatal("snapshot '%s': %zu trailing bytes after the "
                    "payload",
                    origin_.c_str(), buf.size() - pos);
}

} // namespace wilis
