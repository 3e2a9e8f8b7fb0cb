/**
 * @file
 * Key/value configuration used by the plug-n-play registry (the AWB
 * analog, WiLIS section 2 "Plug-n-Play"). A Config is a flat string
 * map with typed accessors; it can be parsed from "k=v,k=v" strings
 * or from simple "k = v" text files.
 */

#ifndef WILIS_LI_CONFIG_HH
#define WILIS_LI_CONFIG_HH

#include <cstdint>
#include <map>
#include <string>

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

    /** getInt() that is also fatal outside [@p lo, @p hi]. */
    long getInt(const std::string &key, long def, long lo,
                long hi) const;

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

} // namespace li
} // namespace wilis

#endif // WILIS_LI_CONFIG_HH
