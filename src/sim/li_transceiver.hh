/**
 * @file
 * The full WiLIS transceiver as a latency-insensitive, multi-clock
 * pipeline: every Figure 1 block is a li::Module communicating only
 * through FIFOs, spread over three clock domains exactly as in
 * section 3 -- the baseband at 35 MHz, the per-bit BER/decoder unit
 * at 60 MHz, and the software channel on the host. Cross-domain
 * hops use automatically inserted synchronizing FIFOs.
 *
 * Every block is one of three stage shapes -- a per-item stream, a
 * block with a fixed initiation interval, or a gather/scatter -- and
 * delegates its mathematics to the same kernels the batch path
 * (sim::Testbench) uses, so the two execution styles are bit-exact
 * by construction -- the WiLIS property that lets a design
 * "transition to the FPGA from software simulation without modifying
 * any source" (section 2). Tests assert the equivalence for the
 * transmitted samples, the payload and every SoftPHY hint.
 */

#ifndef WILIS_SIM_LI_TRANSCEIVER_HH
#define WILIS_SIM_LI_TRANSCEIVER_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "common/types.hh"
#include "sim/scenario.hh"

namespace wilis {
namespace sim {

/** Result of one packet through the LI pipeline. */
struct LiPacketResult {
    /** Decoded, descrambled payload bits. */
    BitVec payload;
    /** Per-bit decisions with the decoder's LLR hints. */
    std::vector<SoftDecision> soft;
    /** Baseband cycles consumed by the run. */
    std::uint64_t basebandCycles = 0;
    /** Decoder-domain cycles consumed by the run. */
    std::uint64_t decoderCycles = 0;
    /** Time-domain samples that crossed the channel. */
    std::uint64_t samples = 0;
};

/**
 * A complete streaming transceiver instance. Construction wires up
 * the pipeline's stages and their FIFOs inside a private scheduler;
 * runPacket() feeds payload bits in at one end and runs the
 * scheduler to quiescence.
 */
class LiTransceiver
{
  public:
    /**
     * Build from the same unified scenario description the batch
     * testbench consumes -- the single source of truth for the
     * bit-exactness tests between the two execution styles. Reads
     * the rate, receiver, channel and clocks.
     */
    explicit LiTransceiver(const ScenarioSpec &spec);

    ~LiTransceiver();

    /** Run one packet end to end through the streaming pipeline. */
    LiPacketResult runPacket(BitView payload, std::uint64_t packet_index);

    /** Number of auto-inserted cross-domain synchronizers. */
    int syncFifoCount() const;

  private:
    struct Impl;
    std::unique_ptr<Impl> impl;
};

} // namespace sim
} // namespace wilis

#endif // WILIS_SIM_LI_TRANSCEIVER_HH
