/**
 * @file
 * Plug-n-play implementation registry (the AWB analog, WiLIS section
 * 2). For any interface type I, Registry<I> maps implementation names
 * to factories taking a Config. Pipelines look implementations up by
 * name at construction time, so swapping e.g. the soft decoder from
 * "sova" to "bcjr" is a configuration change, not a source change.
 *
 * Each implementation declares its keys once, as a Params struct
 * beside its class (one field per key, initialized to its default)
 * with a visitKeys() list of (key, field, li::Range). Every config
 * is parsed through that list, so a key the chosen implementation
 * does not read is fatal instead of a different experiment.
 */

#ifndef WILIS_LI_REGISTRY_HH
#define WILIS_LI_REGISTRY_HH

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "li/config.hh"

namespace wilis {
namespace li {

/** Registry of named implementations of interface @tparam I. */
template <typename I>
class Registry
{
  public:
    /** @param kind_ What an implementation is called in errors. */
    explicit Registry(std::string kind_) : kind(std::move(kind_)) {}

    /**
     * The process-wide registry for I, built on first use by the
     * `builtinRegistry(const I *)` declared beside I.
     */
    static Registry &
    global()
    {
        static Registry instance =
            builtinRegistry(static_cast<const I *>(nullptr));
        return instance;
    }

    /**
     * Register @tparam Impl under @p name, built from @p defaults
     * overlaid with the keys `Impl::Params::visitKeys()` lists.
     */
    template <typename Impl>
    void
    add(const std::string &name,
        const typename Impl::Params &defaults = {})
    {
        wilis_assert(!impls.count(name), "duplicate registration '%s'",
                     name.c_str());
        Entry &e = impls[name];
        auto list = [&e](const char *key, auto &&...) {
            e.keys.emplace_back(key);
        };
        typename Impl::Params(defaults).visitKeys(list);
        std::ranges::sort(e.keys);
        e.parse = [defaults](const Config &cfg, const std::string &prefix,
                             bool build) -> std::unique_ptr<I> {
            typename Impl::Params p = defaults;
            const ApplyKeys apply(cfg, prefix);
            p.visitKeys(apply);
            return build ? std::make_unique<Impl>(p) : nullptr;
        };
    }

    /** Instantiate @p name; fatal on a key outside keys(name). */
    std::unique_ptr<I>
    create(const std::string &name, const Config &cfg = Config()) const
    {
        return parse(name, cfg, "", true);
    }

    /**
     * create()'s checks without constructing; errors name each key
     * as @p prefix + key, the way the user wrote it.
     */
    void
    check(const std::string &name, const Config &cfg,
          const std::string &prefix) const
    {
        parse(name, cfg, prefix, false);
    }

    /** The config keys @p name accepts, sorted; fatal if unknown. */
    const std::vector<std::string> &
    keys(const std::string &name) const
    {
        return find(name).keys;
    }

    /** Names of all registered implementations, sorted. */
    std::vector<std::string>
    names() const
    {
        std::vector<std::string> out;
        for (const auto &kv : impls)
            out.push_back(kv.first);
        return out;
    }

  private:
    struct Entry {
        /** Accepted keys, sorted. */
        std::vector<std::string> keys;
        /** Parse a config of known keys; construct only if build. */
        std::function<std::unique_ptr<I>(const Config &,
                                         const std::string &, bool)>
            parse;
    };

    const Entry &
    find(const std::string &name) const
    {
        auto it = impls.find(name);
        if (it == impls.end())
            wilis_fatal("no %s implementation '%s' registered "
                        "(known: %s)",
                        kind.c_str(), name.c_str(),
                        join(names()).c_str());
        return it->second;
    }

    std::unique_ptr<I>
    parse(const std::string &name, const Config &cfg,
          const std::string &prefix, bool build) const
    {
        const Entry &e = find(name);
        Config shown; // keys as the user wrote them
        for (const auto &kv : cfg.entries()) {
            if (!std::ranges::binary_search(e.keys, kv.first))
                wilis_fatal("unknown %s key '%s' for %s (valid keys: "
                            "%s)",
                            kind.c_str(), (prefix + kv.first).c_str(),
                            name.c_str(), join(e.keys).c_str());
            if (!prefix.empty())
                shown.set(prefix + kv.first, kv.second);
        }
        return e.parse(prefix.empty() ? cfg : shown, prefix, build);
    }

    static std::string
    join(const std::vector<std::string> &items)
    {
        std::string s;
        for (const std::string &item : items)
            s += (s.empty() ? "" : ", ") + item;
        return s.empty() ? "<none>" : s;
    }

    std::string kind;
    std::map<std::string, Entry> impls;
};

} // namespace li
} // namespace wilis

#endif // WILIS_LI_REGISTRY_HH
