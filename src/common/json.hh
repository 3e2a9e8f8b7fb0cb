/**
 * @file
 * Minimal JSON support for machine-readable reports: an ordered,
 * deterministic writer (the emission backend of bench::JsonReport
 * and the campaign RunReport) and a strict recursive-descent parser
 * used by the campaign layer to merge per-shard reports.
 *
 * Determinism contract: the writer emits members in insertion order
 * with a fixed layout (2-space indent, one member per line), and the
 * parser preserves both member order and the *raw text* of numbers,
 * so a parse -> re-emit cycle of numeric state is byte-exact as long
 * as the emitter prints each number the same way (the campaign
 * serializes doubles with "%.17g", which round-trips IEEE doubles
 * losslessly through strtod).
 */

#ifndef WILIS_COMMON_JSON_HH
#define WILIS_COMMON_JSON_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace wilis {
namespace json {

/** Escape a string for embedding in a JSON string literal. */
std::string escape(const std::string &s);

/**
 * Streaming JSON writer with automatic comma/indent management.
 * Members appear exactly in call order -- the stable-key-order half
 * of the report determinism contract. Misuse (a value with no
 * pending key inside an object, unbalanced end calls) is a panic.
 */
class JsonWriter
{
  public:
    JsonWriter() = default;

    /** Open the root or a nested object (after key() inside one). */
    JsonWriter &beginObject();
    /** Close the innermost object. */
    JsonWriter &endObject();
    /** Open an array value. */
    JsonWriter &beginArray();
    /** Close the innermost array. */
    JsonWriter &endArray();

    /** Name the next member of the open object. */
    JsonWriter &key(const std::string &name);

    /** String value (escaped). */
    JsonWriter &value(const std::string &v);
    JsonWriter &value(const char *v);
    /** Integer values (emitted exactly). */
    JsonWriter &value(std::uint64_t v);
    JsonWriter &value(std::int64_t v);
    JsonWriter &value(int v);
    /** Boolean value. */
    JsonWriter &valueBool(bool v);
    /**
     * Double value via printf @p fmt. The default "%.17g" is the
     * lossless IEEE-754 round-trip form the campaign merge relies
     * on; display-oriented writers may pass "%.6g".
     */
    JsonWriter &valueDouble(double v, const char *fmt = "%.17g");
    /** Pre-formatted token emitted verbatim (numbers, true/false). */
    JsonWriter &valueRaw(const std::string &token);

    /** Finished document (must be balanced; trailing newline). */
    const std::string &str() const;

  private:
    void beforeValue();
    void newlineIndent();

    std::string out;
    // One frame per open container: 'o' (object) / 'a' (array),
    // plus the number of values already emitted in it.
    std::vector<std::pair<char, int>> stack;
    bool keyPending = false;
    bool rootDone = false;
};

/**
 * Parsed JSON value. Objects keep member order; numbers keep their
 * raw source text (see the file comment for why). All accessors are
 * fatal on kind mismatch or malformed numeric text: the parser's
 * single caller is the campaign merge, where a malformed shard
 * report must stop the run, not corrupt it.
 */
class JsonValue
{
  public:
    enum class Kind { Null, Bool, Number, String, Array, Object };

    /**
     * Parse a complete JSON document (fatal on any syntax error; the
     * message names @p origin, e.g. the file the text was read from).
     */
    static JsonValue parse(const std::string &text,
                           const std::string &origin);

    /** Value kind. */
    Kind kind() const { return kind_; }

    /** Boolean value. */
    bool asBool() const;
    /** Raw source text of a number. */
    const std::string &raw() const;
    /** Number as double (strtod of the raw text). */
    double asDouble() const;
    /** Number as int64 (fatal on range/format errors). */
    std::int64_t asInt() const;
    /** Number as uint64 (fatal on sign/range/format errors). */
    std::uint64_t asU64() const;
    /** String value (unescaped). */
    const std::string &asString() const;
    /** Array elements. */
    const std::vector<JsonValue> &items() const;
    /** Object members in document order. */
    const std::vector<std::pair<std::string, JsonValue>> &
    members() const;
    /** Object member @p key (fatal if absent). */
    const JsonValue &at(const std::string &key) const;
    /** Object member @p key, or nullptr if absent. */
    const JsonValue *find(const std::string &key) const;

  private:
    Kind kind_ = Kind::Null;
    bool bool_ = false;
    std::string scalar; // number raw text or unescaped string
    std::vector<JsonValue> items_;
    std::vector<std::pair<std::string, JsonValue>> members_;

    friend class JsonParser;
};

} // namespace json
} // namespace wilis

#endif // WILIS_COMMON_JSON_HH
