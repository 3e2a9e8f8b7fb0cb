/**
 * @file
 * Scoped kernel-table switch for tests that compare backends: selects
 * a backend with kernels::setBackend() and restores the previously
 * active table on scope exit, so a forced scalar table never leaks
 * into the next test of the binary. Header-only test code.
 */

#ifndef WILIS_TESTS_SCOPED_BACKEND_HH
#define WILIS_TESTS_SCOPED_BACKEND_HH

#include <gtest/gtest.h>

#include "common/kernels.hh"

namespace wilis {
namespace kernels {

/** Runs its scope under one kernel backend. */
class ScopedBackend
{
  public:
    explicit ScopedBackend(Backend b) : prev(activeBackend())
    {
        EXPECT_TRUE(setBackend(b)) << backendName(b);
    }
    ~ScopedBackend() { setBackend(prev); }

    ScopedBackend(const ScopedBackend &) = delete;
    ScopedBackend &operator=(const ScopedBackend &) = delete;

  private:
    Backend prev;
};

} // namespace kernels
} // namespace wilis

#endif // WILIS_TESTS_SCOPED_BACKEND_HH
