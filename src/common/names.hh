/**
 * @file
 * Name tables of the enums an experiment is assembled from: the
 * spec-key values (scheduler=pf, qdisc=priority, ...), the kernel
 * backends and the packet-trace words. One constant table per enum
 * is read both ways, so a name is spelled once.
 */

#ifndef WILIS_COMMON_NAMES_HH
#define WILIS_COMMON_NAMES_HH

#include <array>
#include <concepts>
#include <cstddef>
#include <optional>
#include <string>
#include <string_view>

#include "common/logging.hh"

namespace wilis {

/** One name of an enum value. */
template <typename E>
struct NameRow {
    /** The value named. */
    E value{};
    /** Its name (a string literal). */
    std::string_view name;
};

/**
 * An enum's names. Rows [0, values) hold each value's canonical name
 * in enum order, so name() is one indexed load; the rows after them
 * are aliases that find() and parse() also accept. Every name is a
 * string literal, so name(e).data() is a C string.
 */
template <typename E, std::size_t N>
struct NameTable {
    /** What a value is called in errors ("scheduler"). */
    std::string_view noun;
    /** Canonical rows, then aliases. */
    std::array<NameRow<E>, N> rows;
    /** Number of enum values (of canonical rows). */
    std::size_t values = 0;

    /** The canonical name of @p e; "?" outside the enum. */
    constexpr std::string_view
    name(E e) const
    {
        const auto i = static_cast<std::size_t>(e);
        return i < values ? rows[i].name : "?";
    }

    /** The value named @p s, or nullopt for an unknown name. */
    constexpr std::optional<E>
    find(std::string_view s) const
    {
        for (const NameRow<E> &r : rows)
            if (r.name == s)
                return r.value;
        return std::nullopt;
    }

    /** The value named @p s; fatal, listing the names, if unknown. */
    E
    parse(std::string_view s) const
    {
        if (const std::optional<E> e = find(s))
            return *e;
        std::string valid;
        for (std::size_t i = 0; i < values; ++i)
            valid += (i ? "|" : "") + std::string(rows[i].name);
        wilis_fatal("unknown %s '%.*s' (%s)", noun.data(),
                    static_cast<int>(s.size()), s.data(), valid.c_str());
    }
};

/**
 * The table of @p rows: each value's canonical row first, in enum
 * order from 0, then the aliases. A table out of that order does not
 * compile.
 */
template <typename E, std::size_t N>
consteval NameTable<E, N>
nameTable(std::string_view noun, const NameRow<E> (&rows)[N])
{
    NameTable<E, N> t{noun, {}, 0};
    while (t.values < N &&
           static_cast<std::size_t>(rows[t.values].value) == t.values)
        ++t.values;
    for (std::size_t i = 0; i < N; ++i) {
        if (static_cast<std::size_t>(rows[i].value) >= t.values)
            throw "name table rows out of order";
        t.rows[i] = rows[i];
    }
    return t;
}

/** @p C is a name table of the enum @p E. */
template <typename C, typename E>
concept NameTableOf = requires(const C &c, std::string_view s) {
    { c.parse(s) } -> std::same_as<E>;
};

} // namespace wilis

#endif // WILIS_COMMON_NAMES_HH
