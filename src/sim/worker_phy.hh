/**
 * @file
 * Shared worker-thread PHY context of the network simulators: one
 * transmitter/receiver pair per rate (built lazily -- a run that
 * never visits QAM64 never pays for it) and the frame arena backing
 * the zero-copy packet path, plus the mutex-guarded free list that
 * leases contexts to work items. Its frame() is the one full-PHY
 * frame of both the single-cell engine (network_sim.cc) and the
 * multi-cell engine (multicell_soa.cc); both draw from this pool,
 * so at most `threads` contexts ever exist regardless of the user or
 * cell count.
 *
 * Internal to src/sim -- not part of the public simulator API.
 */

#ifndef WILIS_SIM_WORKER_PHY_HH
#define WILIS_SIM_WORKER_PHY_HH

#include <array>
#include <memory>
#include <vector>

#include "channel/channel.hh"
#include "common/frame_arena.hh"
#include "common/random.hh"
#include "common/sync.hh"
#include "common/thread_annotations.hh"
#include "phy/ofdm_rx.hh"
#include "phy/ofdm_tx.hh"
#include "sim/link_fidelity.hh"
#include "sim/scenario.hh"
#include "softphy/ber_estimator.hh"

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

    /**
     * One bit-exact frame of @p link at rate @p rate: the payload of
     * sequence number @p seq (keyed by @p payload_seed, so a
     * retransmission resends the same bits), modulated, sent through
     * @p chan at slot @p t, demodulated and decoded. The frame is ok
     * when the payload decodes error-free; the feedback is @p est's
     * SoftPHY packet BER.
     */
    LinkFrameResult
    frame(phy::RateIndex rate, const ScenarioSpec &link, channel::Channel &chan,
          const softphy::BerEstimator &est, std::uint64_t payload_seed,
          std::uint64_t seq, std::uint64_t t)
    {
        arena.reset();
        BitSpan payload = arena.alloc<Bit>(link.payloadBits);
        // Same derivation as Testbench::makePayloadInto.
        fillDeterministicBits(payload, payload_seed, seq);
        FrameContext ctx(arena);
        SampleSpan samples = txAt(rate, link.rx).modulate(payload, ctx);
        chan.apply(samples, t);
        phy::RxFrame rx_frame =
            rxAt(rate, link.rx)
                .demodulate(samples, link.payloadBits, &chan, t, ctx);
        LinkFrameResult res;
        res.ok = rx_frame.bitErrors(payload) == 0;
        res.pber = est.packetBerForRate(rate, rx_frame.soft);
        res.fullPhy = true;
        return res;
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
