/**
 * @file
 * End-to-end transceiver testbench: transmitter -> software channel
 * -> receiver, the co-simulation arrangement of Figure 1 at the
 * functional-kernel level. The latency-insensitive, cycle-counted
 * streaming transceiver lives in sim/li_transceiver; both are built
 * from the same blocks, which is what lets WiLIS move between
 * software simulation and the FPGA "without modifying any source"
 * (section 2).
 */

#ifndef WILIS_SIM_TESTBENCH_HH
#define WILIS_SIM_TESTBENCH_HH

#include <cstdint>
#include <memory>

#include "channel/channel.hh"
#include "common/frame_arena.hh"
#include "common/random.hh"
#include "common/types.hh"
#include "phy/ofdm_rx.hh"
#include "phy/ofdm_tx.hh"
#include "sim/scenario.hh"

namespace wilis {
namespace sim {

/**
 * One packet's results: views into the testbench's frame arena,
 * valid until the next runFrame() or runFrameWithPayload() call on
 * the same testbench. A caller that keeps them copies them out.
 */
struct FrameResult {
    /** View of the transmitted payload bits. */
    BitView txPayload;
    /** Receiver output views (decoded payload + SoftPHY hints). */
    phy::RxFrame rx;
    /** Decoded-payload bit errors against txPayload. */
    std::uint64_t bitErrors = 0;
    /** True if the payload decoded error-free. */
    bool ok = false;
};

/** A single-threaded transceiver instance. */
class Testbench
{
  public:
    /**
     * Build transmitter, channel and receiver from @p spec (its
     * payloadBits is ignored: callers pass the length per packet).
     */
    explicit Testbench(const ScenarioSpec &spec);

    /** Scenario in use. */
    const ScenarioSpec &config() const { return spec_; }

    /** Transmitter (for frame geometry queries). */
    phy::OfdmTransmitter &tx() { return *tx_; }

    /** Channel instance. */
    channel::Channel &channel() { return *chan; }

    /** Receiver instance. */
    phy::OfdmReceiver &rx() { return *rx_; }

    /** Fill @p out with the deterministic payload of @p packet_index. */
    void makePayloadInto(BitSpan out,
                         std::uint64_t packet_index) const;

    /**
     * Run one packet end to end: rewinds the per-testbench frame
     * arena and runs the packet entirely inside it. After a
     * one-packet warm-up this performs no heap allocations. The
     * returned views die at the next run on this testbench.
     * @param payload_bits  Payload length in bits.
     * @param packet_index  Packet index (selects payload and the
     *                      replayable channel realization).
     */
    FrameResult runFrame(size_t payload_bits,
                         std::uint64_t packet_index);

    /**
     * Run a caller-owned payload (which must outlive the call and
     * not live in this testbench's arena) through the channel at
     * this testbench's rate.
     */
    FrameResult runFrameWithPayload(BitView payload,
                                    std::uint64_t packet_index);

    /** The frame arena backing the zero-copy path (for stats). */
    const FrameArena &arena() const { return arena_; }

  private:
    FrameResult runFrameInternal(BitView payload,
                                 std::uint64_t packet_index);

    ScenarioSpec spec_;
    std::unique_ptr<phy::OfdmTransmitter> tx_;
    std::unique_ptr<phy::OfdmReceiver> rx_;
    std::unique_ptr<channel::Channel> chan;
    FrameArena arena_;
};

} // namespace sim
} // namespace wilis

#endif // WILIS_SIM_TESTBENCH_HH
