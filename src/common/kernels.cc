#include "common/kernels.hh"

#include <atomic>
#include <cstdlib>

#include "common/cpu_features.hh"
#include "common/logging.hh"

namespace wilis {
namespace kernels {

namespace detail {
const Ops *opsScalar();
const Ops *opsAvx2();
} // namespace detail

namespace {

const Ops *
tableFor(Backend b)
{
    switch (b) {
      case Backend::Scalar:
        return detail::opsScalar();
      case Backend::Avx2:
        return detail::opsAvx2();
    }
    return nullptr;
}

bool
hostSupports(Backend b)
{
    switch (b) {
      case Backend::Scalar:
        return true;
      case Backend::Avx2:
        return cpu::hasAvx2();
    }
    return false;
}

Backend
widestSupported()
{
    if (backendSupported(Backend::Avx2))
        return Backend::Avx2;
    return Backend::Scalar;
}

/**
 * The dispatch pointer. Every synchronizing access is an explicit
 * atomic op (TSan-clean by construction): release stores in
 * setBackend()/the init CAS pair with the acquire loads in
 * activeTable(), and the pointed-to Ops tables are immutable
 * function-local statics, so a reader can never observe a
 * half-published table.
 */
std::atomic<const Ops *> g_active{nullptr};

/**
 * Resolve the initial table: WILIS_KERNEL_BACKEND if set (unknown
 * names are fatal so typos in CI configs can't silently measure the
 * wrong thing; a known but unsupported backend warns and falls
 * back), else the widest backend the host executes.
 */
const Ops *
initialTable()
{
    Backend chosen = widestSupported();
    const char *env = std::getenv("WILIS_KERNEL_BACKEND");
    // "auto" (or empty) keeps the widest-supported default.
    if (env && *env && std::string_view(env) != "auto") {
        const Backend requested = kBackendNames.parse(env);
        if (!backendSupported(requested)) {
            wilis_warn("WILIS_KERNEL_BACKEND=%s unsupported on this "
                      "host (%s); using %s",
                      env, cpu::featureString().c_str(),
                      backendName(chosen));
        } else {
            chosen = requested;
        }
    }
    return tableFor(chosen);
}

const Ops *
activeTable()
{
    const Ops *t = g_active.load(std::memory_order_acquire);
    if (t)
        return t;
    // The function-local static runs initialTable() exactly once
    // (so the env var is parsed, and its warnings printed, once),
    // however many initializers race here. It cannot order us
    // against a concurrent explicit setBackend() -- so the install
    // must be a CAS from nullptr: if anything (another initializer
    // or a user-forced setBackend) won the race, their table stands
    // and the env-derived default is discarded, never stomped on
    // top.
    static const Ops *const init = initialTable();
    const Ops *expected = nullptr;
    if (g_active.compare_exchange_strong(expected, init,
                                         std::memory_order_acq_rel,
                                         std::memory_order_acquire))
        return init;
    return expected; // a concurrent setBackend() beat us to it
}

} // namespace

const char *
backendName(Backend b)
{
    return kBackendNames.name(b).data();
}

const Ops &
ops()
{
    return *activeTable();
}

Backend
activeBackend()
{
    return ops().backend;
}

bool
backendSupported(Backend b)
{
    return tableFor(b) != nullptr && hostSupports(b);
}

std::vector<Backend>
availableBackends()
{
    std::vector<Backend> v;
    for (Backend b : {Backend::Scalar, Backend::Avx2}) {
        if (backendSupported(b))
            v.push_back(b);
    }
    return v;
}

bool
setBackend(Backend b)
{
    if (!backendSupported(b))
        return false;
    g_active.store(tableFor(b), std::memory_order_release);
    return true;
}

} // namespace kernels
} // namespace wilis
