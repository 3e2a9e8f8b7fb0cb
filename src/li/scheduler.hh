/**
 * @file
 * Multi-clock scheduler for latency-insensitive pipelines.
 *
 * The scheduler owns clock domains, FIFOs, and (optionally) modules.
 * It advances simulated time edge by edge: at each step the domain(s)
 * with the earliest next clock edge tick all of their modules. This
 * reproduces the WiLIS execution model where e.g. the baseband runs at
 * 35 MHz while the per-bit BER unit runs at 60 MHz (section 3).
 */

#ifndef WILIS_LI_SCHEDULER_HH
#define WILIS_LI_SCHEDULER_HH

#include <memory>
#include <string>
#include <vector>

#include "li/clock.hh"
#include "li/fifo.hh"
#include "li/module.hh"
#include "li/sync_fifo.hh"

namespace wilis {
namespace li {

/** Owns and advances a set of clock domains and their modules. */
class Scheduler
{
  public:
    Scheduler();

    /** Create a clock domain. The scheduler retains ownership. */
    ClockDomain *createDomain(const std::string &name, double freq_mhz);

    /** Register a module (non-owning) in @p domain. */
    void add(Module *m, ClockDomain *domain);

    /** Register a module the scheduler should own, in @p domain. */
    Module *adopt(std::unique_ptr<Module> m, ClockDomain *domain);

    /**
     * Create a FIFO connecting a producer in @p src to a consumer in
     * @p dst. If the domains differ, a SyncFifo with a two-consumer-
     * cycle crossing latency is inserted automatically.
     */
    template <typename T>
    Fifo<T> *
    connectFifo(const std::string &name, size_t capacity,
                ClockDomain *src, ClockDomain *dst)
    {
        std::unique_ptr<Fifo<T>> f;
        if (src == dst || src == nullptr || dst == nullptr) {
            f = std::make_unique<Fifo<T>>(name, capacity);
        } else {
            f = std::make_unique<SyncFifo<T>>(
                name, capacity, &now_ps, 2 * dst->periodPs());
            ++sync_fifo_count;
        }
        Fifo<T> *raw = f.get();
        fifos.push_back(std::move(f));
        return raw;
    }

    /** Current simulated time in picoseconds. */
    SimTime now() const { return now_ps; }

    /** Number of automatically inserted cross-domain synchronizers. */
    int syncFifoCount() const { return sync_fifo_count; }

    /** All FIFOs created through connectFifo(). */
    const std::vector<std::unique_ptr<FifoBase>> &allFifos() const
    {
        return fifos;
    }

    /**
     * Advance exactly one clock edge (the earliest pending edge over
     * all domains; simultaneous edges all fire).
     * @return true if any ticked module reported progress.
     */
    bool step();

    /**
     * Run until every domain has been idle (no module progress) for
     * @p idle_cycles consecutive cycles, or until @p max_edges edges
     * have fired.
     * @return number of edges executed.
     */
    std::uint64_t runUntilIdle(int idle_cycles = 8,
                               std::uint64_t max_edges = ~0ull);

  private:
    struct DomainState {
        std::unique_ptr<ClockDomain> domain;
        std::vector<Module *> modules;
        std::uint64_t consecutive_idle = 0;
    };

    DomainState *findState(ClockDomain *domain);

    std::vector<DomainState> domains;
    std::vector<std::unique_ptr<Module>> owned_modules;
    std::vector<std::unique_ptr<FifoBase>> fifos;
    SimTime now_ps = 0;
    int sync_fifo_count = 0;
};

} // namespace li
} // namespace wilis

#endif // WILIS_LI_SCHEDULER_HH
