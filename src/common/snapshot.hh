/**
 * @file
 * Versioned binary snapshot transport for checkpoint/resume of the
 * simulation state (ROADMAP item 1: a long campaign must be able to
 * stop mid-flight and resume *bit-identically*).
 *
 * Format: a fixed magic, a container format version, a caller
 * payload version, and a spec fingerprint string, followed by the
 * caller's raw little-endian fields. The reader validates all four
 * before a single payload byte is decoded, and every primitive read
 * is bounds-checked -- a truncated or mismatched file is fatal with
 * a named reason, never a silently corrupted resume.
 *
 * Layout discipline: the byte stream carries no type tags, so writer
 * and reader must agree field for field. Callers bracket logical
 * sections with marker() tags (cheap u32 guards) so a skew between
 * the two sides fails at the section boundary that introduced it,
 * not megabytes later. A file that decodes but carries a value no
 * run can produce (an out-of-range enum, index or count) is fatal
 * too: decoders check restored values with the typed reads below
 * or fail(), naming the file and the offset.
 */

#ifndef WILIS_COMMON_SNAPSHOT_HH
#define WILIS_COMMON_SNAPSHOT_HH

#include <cstdint>
#include <string>

namespace wilis {

/** Append-only little-endian snapshot serializer. */
class SnapshotWriter
{
  public:
    /**
     * @param payload_version Caller's payload schema version.
     * @param fingerprint     Canonical description of the producing
     *                        spec; the reader refuses a file whose
     *                        fingerprint differs from the spec it
     *                        is asked to resume.
     */
    SnapshotWriter(std::uint32_t payload_version,
                   const std::string &fingerprint);

    /** Append one primitive. */
    void u8(std::uint8_t v);
    void u32(std::uint32_t v);
    void u64(std::uint64_t v);
    void i64(std::int64_t v);
    /** Append a double by IEEE-754 bit pattern (exact). */
    void f64(double v);
    /** Append a length-prefixed string. */
    void str(const std::string &v);
    /** Append a section guard tag (see SnapshotReader::marker). */
    void marker(std::uint32_t tag);

    /**
     * Write the snapshot to @p path atomically (a temporary file in
     * the same directory, then rename), so a crash mid-checkpoint
     * leaves the previous snapshot intact. Fatal on I/O errors.
     */
    void save(const std::string &path) const;

    /** Serialized bytes (header included). */
    const std::string &bytes() const { return buf; }

  private:
    std::string buf;
};

/** Bounds-checked reader over a snapshot file or byte string. */
class SnapshotReader
{
  public:
    /**
     * Load @p path and validate magic, container version, payload
     * version and fingerprint (all fatal on mismatch, with the
     * offending value named).
     */
    SnapshotReader(const std::string &path,
                   std::uint32_t payload_version,
                   const std::string &fingerprint);

    /** Validate an in-memory snapshot (tests). */
    static SnapshotReader fromBytes(const std::string &bytes,
                                    std::uint32_t payload_version,
                                    const std::string &fingerprint);

    /** Read one primitive (fatal on truncation). */
    std::uint8_t u8();
    std::uint32_t u32();
    std::uint64_t u64();
    std::int64_t i64();
    double f64();
    std::string str();
    /** Consume a section guard; fatal if @p tag does not match. */
    void marker(std::uint32_t tag);

    /**
     * Read an element count; fatal unless the rest of the payload
     * can hold that many elements of at least @p min_bytes each, so
     * a corrupt count never drives a huge allocation.
     */
    std::uint64_t count(size_t min_bytes);
    /** Read a u8 below @p bound; fatal naming @p what otherwise. */
    std::uint8_t u8Below(unsigned bound, const char *what);
    /** Read an i64 in [@p lo, @p hi); fatal naming @p what otherwise. */
    std::int64_t i64In(std::int64_t lo, std::int64_t hi,
                       const char *what);
    /**
     * fatal(): the payload decoded but holds @p what, a value no run
     * can produce. The message names the file and the read offset.
     */
    [[noreturn]] void fail(const std::string &what) const;

    /** fatal() unless the whole payload was consumed. */
    void done() const;

  private:
    SnapshotReader(std::string bytes, std::string origin,
                   std::uint32_t payload_version,
                   const std::string &fingerprint);

    void need(size_t n) const;

    std::string buf;
    std::string origin_;
    size_t pos = 0;
};

} // namespace wilis

#endif // WILIS_COMMON_SNAPSHOT_HH
