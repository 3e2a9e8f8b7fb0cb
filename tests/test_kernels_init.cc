/**
 * @file
 * Regression test for the kernel-dispatch first-use race: a lazy
 * ops() initialization racing a concurrent explicit setBackend()
 * must never stomp the user-forced table with the env-derived
 * default. This suite must be its own binary -- the race only
 * exists while the process-wide table is still unset, so the
 * hammering below has to be the first kernel-layer touch.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <thread>
#include <vector>

#include "common/kernels.hh"
#include "sim/testbench.hh"

using namespace wilis;

TEST(KernelsInit, LazyInitNeverStompsAConcurrentSetBackend)
{
    // Keep the env out of the picture: initialTable() must derive
    // the host default, the path that used to overwrite.
    ::unsetenv("WILIS_KERNEL_BACKEND");

    std::atomic<bool> go{false};
    std::atomic<bool> set_ok{false};
    std::vector<std::thread> readers;
    for (int i = 0; i < 4; ++i) {
        readers.emplace_back([&] {
            while (!go.load(std::memory_order_acquire)) {
            }
            for (int k = 0; k < 256; ++k)
                (void)kernels::ops();
        });
    }
    std::thread setter([&] {
        while (!go.load(std::memory_order_acquire)) {
        }
        set_ok.store(kernels::setBackend(kernels::Backend::Scalar));
    });
    go.store(true, std::memory_order_release);
    for (auto &t : readers)
        t.join();
    setter.join();

    // Whatever the interleaving, the explicit selection stands:
    // first-use init may install the default only while no backend
    // has been chosen, never on top of one.
    EXPECT_TRUE(set_ok.load());
    EXPECT_EQ(kernels::activeBackend(), kernels::Backend::Scalar);
    EXPECT_EQ(kernels::ops().backend, kernels::Backend::Scalar);
}

TEST(KernelsInit, HarnessConstructionKeepsTheExplicitSelection)
{
    // Ordered after the race test in this binary: scalar is forced,
    // and building a harness must not reset it to the default.
    sim::Testbench tb(sim::ScenarioSpec{});
    EXPECT_EQ(kernels::activeBackend(), kernels::Backend::Scalar);
}
