/**
 * @file
 * Status/error reporting in the gem5 style: panic() for internal
 * invariant violations (simulator bugs), fatal() for user/config
 * errors, warn() for non-fatal conditions.
 */

#ifndef WILIS_COMMON_LOGGING_HH
#define WILIS_COMMON_LOGGING_HH

#include <cstdarg>
#include <string>

namespace wilis {

/** printf-style formatting into a std::string. */
std::string strprintf(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

namespace detail {
/** Backend of wilis_panic(): print and abort(). */
[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &msg);
/** Backend of wilis_fatal(): print and exit(1). */
[[noreturn]] void fatalImpl(const char *file, int line,
                            const std::string &msg);
/** Backend of wilis_warn(). */
void warnImpl(const std::string &msg);
} // namespace detail

/** Abort: something happened that should never happen (a WiLIS bug). */
#define wilis_panic(...) \
    ::wilis::detail::panicImpl(__FILE__, __LINE__, \
                               ::wilis::strprintf(__VA_ARGS__))

/** Exit(1): the simulation cannot continue due to a user error. */
#define wilis_fatal(...) \
    ::wilis::detail::fatalImpl(__FILE__, __LINE__, \
                               ::wilis::strprintf(__VA_ARGS__))

/** fatal() if the given condition holds (bad config or input file). */
#define wilis_fatal_if(cond, ...) \
    do { \
        if (cond) \
            wilis_fatal(__VA_ARGS__); \
    } while (0)

/** Non-fatal: functionality may be degraded; user should look here. */
#define wilis_warn(...) \
    ::wilis::detail::warnImpl(::wilis::strprintf(__VA_ARGS__))

/** panic() unless the given condition holds. */
#define wilis_assert(cond, ...) \
    do { \
        if (!(cond)) \
            wilis_panic("assertion '%s' failed: %s", #cond, \
                        ::wilis::strprintf(__VA_ARGS__).c_str()); \
    } while (0)

} // namespace wilis

#endif // WILIS_COMMON_LOGGING_HH
