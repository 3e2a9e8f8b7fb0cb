/**
 * @file
 * Shared worker-thread PHY context of the network simulators: one
 * transmitter/receiver pair per rate (built lazily -- a run that
 * never visits QAM64 never pays for it) and the frame arena backing
 * the zero-copy packet path, plus the mutex-guarded free list that
 * leases contexts to work items. Both the single-cell engine
 * (network_sim.cc) and the multi-cell engine (multicell_soa.cc)
 * draw from this pool, so at most `threads` contexts ever exist
 * regardless of the user or cell count.
 *
 * Internal to src/sim -- not part of the public simulator API.
 */

#ifndef WILIS_SIM_WORKER_PHY_HH
#define WILIS_SIM_WORKER_PHY_HH

#include <array>
#include <memory>
#include <vector>

#include "common/frame_arena.hh"
#include "common/sync.hh"
#include "common/thread_annotations.hh"
#include "phy/ofdm_rx.hh"
#include "phy/ofdm_tx.hh"

namespace wilis {
namespace sim {

/** Per-worker PHY context, leased to one work item at a time. */
struct WorkerPhy {
    /** Per-rate transmitters, built on first use. */
    std::array<std::unique_ptr<phy::OfdmTransmitter>, phy::kNumRates>
        tx;
    /** Per-rate receivers, built on first use. */
    std::array<std::unique_ptr<phy::OfdmReceiver>, phy::kNumRates> rx;
    /** Frame arena backing the zero-copy packet path. */
    FrameArena arena;

    /** Transmitter for rate @p r (lazily constructed). */
    phy::OfdmTransmitter &
    txAt(phy::RateIndex r, const phy::OfdmReceiver::Config &cfg)
    {
        auto &slot = tx[static_cast<size_t>(r)];
        if (!slot)
            slot = std::make_unique<phy::OfdmTransmitter>(
                r, cfg.scramblerSeed);
        return *slot;
    }

    /** Receiver for rate @p r (lazily constructed). */
    phy::OfdmReceiver &
    rxAt(phy::RateIndex r, const phy::OfdmReceiver::Config &cfg)
    {
        auto &slot = rx[static_cast<size_t>(r)];
        if (!slot)
            slot = std::make_unique<phy::OfdmReceiver>(r, cfg);
        return *slot;
    }
};

/** Mutex-guarded free list of worker PHY contexts. */
class WorkerPhyPool
{
  public:
    /** Lease a context (reused if available, else built fresh). */
    std::unique_ptr<WorkerPhy>
    acquire()
    {
        MutexLock lock(mtx);
        if (!free_.empty()) {
            auto w = std::move(free_.back());
            free_.pop_back();
            return w;
        }
        return std::make_unique<WorkerPhy>();
    }

    /** Return a leased context to the free list. */
    void
    release(std::unique_ptr<WorkerPhy> w)
    {
        MutexLock lock(mtx);
        free_.push_back(std::move(w));
    }

  private:
    Mutex mtx;
    /** Idle contexts; a leased context is owned by its work item. */
    std::vector<std::unique_ptr<WorkerPhy>> free_
        WILIS_GUARDED_BY(mtx);
};

} // namespace sim
} // namespace wilis

#endif // WILIS_SIM_WORKER_PHY_HH
