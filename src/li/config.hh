/**
 * @file
 * Key/value configuration used by the plug-n-play registry (the AWB
 * analog, WiLIS section 2 "Plug-n-Play"). A Config is a flat string
 * map with typed accessors; it can be parsed from "k=v,k=v" strings
 * or from simple "k = v" text files.
 *
 * Below it sits the one range-check path: key lists (the spec keys,
 * each channel's and decoder's Params) declare (name, field, check)
 * once, and ApplyKeys parses a config through them. An enum key's
 * check is its name table (common/names.hh).
 */

#ifndef WILIS_LI_CONFIG_HH
#define WILIS_LI_CONFIG_HH

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <type_traits>
#include <utility>

#include "common/logging.hh"
#include "common/names.hh"

namespace wilis {
namespace li {

/** Flat key/value configuration with typed accessors. */
class Config
{
  public:
    Config() = default;

    /** Parse "key=value,key2=value2" (commas and/or whitespace). */
    static Config fromString(const std::string &text);

    /** Parse a file of "key = value" lines ('#' starts a comment). */
    static Config fromFile(const std::string &path);

    /** Set a key. */
    void set(const std::string &key, const std::string &value);

    /** True if @p key is present. */
    bool has(const std::string &key) const;

    /** String value or @p def. */
    std::string getString(const std::string &key,
                          const std::string &def = "") const;

    /**
     * Integer value or @p def; fatal on malformed numbers, empty
     * values and values a long cannot hold.
     */
    long getInt(const std::string &key, long def = 0) const;

    /**
     * Unsigned 64-bit value or @p def; fatal on malformed numbers,
     * empty values, a minus sign and values past 2^64 - 1. Use for
     * seeds, which occupy the full 64-bit range.
     */
    std::uint64_t getUint64(const std::string &key,
                            std::uint64_t def = 0) const;

    /** Double value or @p def; fatal on malformed or empty numbers. */
    double getDouble(const std::string &key, double def = 0.0) const;

    /** Bool value ("1/true/yes/on") or @p def. */
    bool getBool(const std::string &key, bool def = false) const;

    /** All keys (for diagnostics). */
    const std::map<std::string, std::string> &entries() const
    {
        return kv;
    }

    /**
     * Canonical "k=v,k2=v2" form: entries in sorted key order, so
     * two configs with equal entries stringify identically and the
     * result parses back via fromString(). Values containing commas
     * would not round-trip; no spec key emits one.
     */
    std::string toString() const;

  private:
    std::map<std::string, std::string> kv;
};

/** Valid values of a numeric key: [lo, hi], either end may be open. */
template <typename T>
struct Range {
    T lo = std::numeric_limits<T>::lowest();
    T hi = std::numeric_limits<T>::max();
    bool loOpen = false;
    bool hiOpen = false;
    /** What the value is called in errors (default: the key). */
    const char *noun = nullptr;
};

template <typename T>
Range<T>
atLeast(T lo)
{
    return {.lo = lo};
}

template <typename T>
Range<T>
above(T lo)
{
    return {.lo = lo, .loOpen = true};
}

template <typename T>
Range<T>
within(T lo, T hi)
{
    return {.lo = lo, .hi = hi};
}

/** No constraint beyond what the field's type can hold. */
struct NoCheck {};

/** Any value; serialized only when set (non-empty, non-zero, true). */
struct Optional {};

/** A field's value as a canonical config string writes it. */
template <typename T>
std::string
formatValue(const T &v)
{
    if constexpr (std::is_same_v<T, std::string>)
        return v;
    else if constexpr (std::is_same_v<T, bool>)
        return v ? "true" : "false";
    else if constexpr (std::is_floating_point_v<T>)
        return strprintf("%g", v);
    else
        return std::to_string(+v);
}

/**
 * Read @p key as a T within @p range; fatal, naming the key, if it is
 * outside. Integers are read at the widest type of their signedness,
 * so a value T cannot hold fails the check instead of being narrowed,
 * and 64-bit values never pass through a double.
 */
template <typename T>
T
readNumber(const Config &cfg, const std::string &key,
           const Range<T> &range)
{
    const auto v = [&] {
        if constexpr (std::is_floating_point_v<T>)
            return cfg.getDouble(key);
        else if constexpr (std::is_signed_v<T>)
            return cfg.getInt(key);
        else
            return cfg.getUint64(key);
    }();
    using Wide = std::remove_const_t<decltype(v)>;
    const Wide lo = range.lo;
    const Wide hi = range.hi;
    // Written so that NaN fails both tests.
    const bool low = range.loOpen ? !(v > lo) : !(v >= lo);
    const bool high = range.hiOpen ? !(v < hi) : !(v <= hi);
    if (!low && !high)
        return static_cast<T>(v);
    // Below the range names the lower bound; above it, the interval;
    // an unbounded floating-point range only rejects NaN and +-inf.
    std::string must;
    if (std::is_floating_point_v<T> &&
        range.lo == std::numeric_limits<T>::lowest() &&
        range.hi == std::numeric_limits<T>::max())
        must = "finite";
    else if (low)
        must = (range.loOpen ? "> " : ">= ") + formatValue(range.lo);
    else
        must = std::string("in ") + (range.loOpen ? "(" : "[") +
               formatValue(range.lo) + "," + formatValue(range.hi) +
               (range.hiOpen ? ")" : "]");
    wilis_fatal("%s %s out of range: %s must be %s",
                range.noun ? range.noun : key.c_str(),
                cfg.getString(key).c_str(), key.c_str(), must.c_str());
}

/**
 * Parses a config through a key list: a key present (under @p prefix)
 * is read and checked, an absent one keeps its field's initializer.
 */
class ApplyKeys
{
  public:
    explicit ApplyKeys(const Config &cfg_, std::string prefix_ = "")
        : cfg(cfg_), prefix(std::move(prefix_))
    {}

    /** Parse @p key into @p field; false if the key is absent. */
    template <typename T, typename Check = NoCheck>
    bool
    operator()(const char *key, T &field, const Check &check = {}) const
    {
        const std::string full = prefix + key;
        if (!cfg.has(full))
            return false;
        static_assert(NameTableOf<Check, T> ||
                          std::is_same_v<Check, Range<T>> ||
                          std::is_same_v<Check, NoCheck> ||
                          std::is_same_v<Check, Optional>,
                      "key check does not match the field type");
        if constexpr (NameTableOf<Check, T>)
            field = check.parse(cfg.getString(full));
        else if constexpr (std::is_same_v<T, std::string>)
            field = cfg.getString(full);
        else if constexpr (std::is_same_v<T, bool>)
            field = cfg.getBool(full);
        else if constexpr (std::is_same_v<Check, Range<T>>)
            field = readNumber(cfg, full, check);
        else
            field = readNumber(cfg, full, Range<T>{});
        return true;
    }

  private:
    const Config &cfg;
    std::string prefix;
};

} // namespace li
} // namespace wilis

#endif // WILIS_LI_CONFIG_HH
