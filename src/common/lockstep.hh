/**
 * @file
 * The worker team behind every parallel loop in src/: the slot loops
 * of the network engines, the packet and grid sweeps, the packet
 * trace's sort and format passes and the multi-threaded AWGN
 * channel. It is the only place in src/ that starts a thread.
 *
 * A team keeps its workers inside the caller's loop for the whole
 * run() and separates phases with a counter/generation barrier: a
 * bounded spin (cheap when each worker owns a core) that falls back
 * to yielding (so oversubscribed hosts -- CI runners, laptops --
 * make progress instead of burning the shared core).
 *
 * Usage: run(body) executes body(worker) concurrently on size()
 * workers, the calling thread acting as worker 0; inside the body,
 * barrier() separates phases. Every worker must reach every
 * barrier() the same number of times, and a team must not be
 * re-entered while a run() is in flight (asserted in run()).
 * forEach(n, fn) is run() over a shared next-index counter: workers
 * claim the items of [0, n) one at a time and call fn(worker, item),
 * so per-worker state (a PHY context, an accumulator) is indexed by
 * worker, never locked. workerCount() is the one place that turns a
 * requested thread count into a team size: `threads=N` means at
 * most N concurrent workers, the caller included.
 *
 * run() joins every worker before it returns, so everything a
 * worker wrote happens-before the caller's next statement; that
 * join and the barrier are the only cross-thread orderings the
 * engines use.
 *
 * Memory-ordering contract (this is what makes the barrier visible
 * to ThreadSanitizer without suppressions -- every synchronizing
 * access is an explicit std::atomic operation, never a plain read
 * polled in a loop):
 *
 *  - every arriver performs an acq_rel fetch_add on arrived_, so
 *    arrivers form a release/acquire chain through the counter and
 *    all pre-barrier writes happen-before the last arriver;
 *  - the last arriver resets arrived_ (relaxed: nobody reads it
 *    until after the generation bump orders the reset) and then
 *    release-increments generation_;
 *  - waiters spin on an acquire load of generation_, so the last
 *    arriver's accumulated history happens-before every waiter's
 *    return. Transitively, any pre-barrier write by any worker
 *    happens-before any post-barrier read by any worker, which is
 *    exactly the phase-separation the engines rely on.
 */

#ifndef WILIS_COMMON_LOCKSTEP_HH
#define WILIS_COMMON_LOCKSTEP_HH

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "common/logging.hh"

namespace wilis {

/** Fixed-size worker team synchronized by a phase barrier. */
class LockstepTeam
{
  public:
    /** @param num_workers Workers including the caller (min 1). */
    explicit LockstepTeam(int num_workers)
        : n_(num_workers < 1 ? 1 : num_workers),
          // Spinning only pays when every worker owns a hardware
          // thread; on an oversubscribed host the spinner is
          // stealing cycles from the worker it is waiting for.
          spin_iters_(n_ <= hardwareThreads() ? kSpinIters : 0)
    {}

    /** Teams are tied to their barrier state: not copyable. */
    LockstepTeam(const LockstepTeam &) = delete;
    /** Teams are tied to their barrier state: not copyable. */
    LockstepTeam &operator=(const LockstepTeam &) = delete;

    /**
     * Team size for @p threads requested workers over @p items work
     * items: 0 means the hardware concurrency; the result is clamped
     * to the item count and is at least 1.
     */
    static int
    workerCount(int threads, std::uint64_t items)
    {
        const int n = threads > 0 ? threads : hardwareThreads();
        return static_cast<int>(std::max<std::uint64_t>(
            1, std::min(static_cast<std::uint64_t>(n), items)));
    }

    /** Number of workers, the calling thread included. */
    int size() const { return n_; }

    /**
     * Execute body(worker) for worker in [0, size()) concurrently;
     * the calling thread runs worker 0. Returns when every worker
     * has finished. Threads are spawned per run(), which is in the
     * noise for anything that iterates a slot loop or a packet
     * sweep inside the body.
     */
    template <typename Body>
    void
    run(const Body &body)
    {
        // Overlapping runs would share arrived_/generation_ and
        // deadlock or tear the barrier; catching the misuse here
        // turns a heisenbug into a deterministic panic.
        wilis_assert(!in_run_.exchange(true,
                                       std::memory_order_acq_rel),
                     "LockstepTeam::run() re-entered while a run "
                     "is in flight");
        if (n_ == 1) {
            body(0);
            in_run_.store(false, std::memory_order_release);
            return;
        }
        std::vector<std::thread> extras;
        extras.reserve(static_cast<size_t>(n_ - 1));
        for (int w = 1; w < n_; ++w)
            extras.emplace_back([&body, w] { body(w); });
        body(0);
        for (std::thread &t : extras)
            t.join();
        in_run_.store(false, std::memory_order_release);
    }

    /**
     * Call fn(worker, i) exactly once for every i in [0, n), items
     * claimed dynamically by the size() workers; returns when all
     * are done. fn must only touch item- or worker-indexed state.
     */
    template <typename Fn>
    void
    forEach(std::uint64_t n, const Fn &fn)
    {
        if (n == 0)
            return;
        // The counter only hands out distinct indices; the join at
        // the end of run() orders the items' writes.
        std::atomic<std::uint64_t> next{0};
        run([&](int w) {
            for (std::uint64_t i = next++; i < n; i = next++)
                fn(w, i);
        });
    }

    /**
     * Wait until all size() workers arrive. The last arriver resets
     * the arrival counter before releasing the generation, so the
     * barrier is immediately reusable for the next phase.
     */
    void
    barrier()
    {
        if (n_ == 1)
            return;
        const std::uint64_t gen =
            generation_.load(std::memory_order_acquire);
        if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 ==
            n_) {
            arrived_.store(0, std::memory_order_relaxed);
            generation_.fetch_add(1, std::memory_order_release);
            return;
        }
        int spins = 0;
        while (generation_.load(std::memory_order_acquire) == gen) {
            if (++spins > spin_iters_)
                std::this_thread::yield();
        }
    }

  private:
    /** Spins before conceding the core to whoever holds the work. */
    static constexpr int kSpinIters = 256;

    /** The host's hardware threads (at least 1), read once. */
    static int
    hardwareThreads()
    {
        static const int hw = static_cast<int>(
            std::max(1u, std::thread::hardware_concurrency()));
        return hw;
    }

    int n_;
    int spin_iters_;
    /** True while a run() is in flight (re-entry guard). */
    std::atomic<bool> in_run_{false};
    /** Workers arrived at the current barrier (acq_rel chain). */
    alignas(64) std::atomic<int> arrived_{0};
    /** Barrier phase number; release-bumped by the last arriver. */
    alignas(64) std::atomic<std::uint64_t> generation_{0};
};

} // namespace wilis

#endif // WILIS_COMMON_LOCKSTEP_HH
