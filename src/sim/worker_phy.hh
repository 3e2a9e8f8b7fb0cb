/**
 * @file
 * Shared worker-thread PHY context of the network simulators: one
 * transmitter/receiver pair per rate (built lazily -- a run that
 * never visits QAM64 never pays for it) and the frame arena backing
 * the zero-copy packet path (also allocated on first use, so a run
 * that never takes a full-PHY slot pays nothing). Its frame() is the
 * one full-PHY frame of both the single-cell engine (network_sim.cc)
 * and the multi-cell engine (multicell_soa.cc). Each engine owns one
 * context per LockstepTeam worker and indexes it by the worker, so
 * at most `threads` contexts ever exist regardless of the user or
 * cell count, and none is ever shared between threads.
 *
 * Internal to src/sim -- not part of the public simulator API.
 */

#ifndef WILIS_SIM_WORKER_PHY_HH
#define WILIS_SIM_WORKER_PHY_HH

#include <array>
#include <memory>

#include "channel/channel.hh"
#include "common/frame_arena.hh"
#include "common/random.hh"
#include "phy/ofdm_rx.hh"
#include "phy/ofdm_tx.hh"
#include "sim/link_fidelity.hh"
#include "sim/scenario.hh"
#include "softphy/ber_estimator.hh"

namespace wilis {
namespace sim {

/** Per-worker PHY context, owned by one worker of a run. */
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
    frame(phy::RateIndex rate, const ScenarioSpec &link,
          channel::Channel &chan, const softphy::BerEstimator &est,
          std::uint64_t payload_seed, std::uint64_t seq, std::uint64_t t)
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

} // namespace sim
} // namespace wilis

#endif // WILIS_SIM_WORKER_PHY_HH
