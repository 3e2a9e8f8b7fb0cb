/**
 * @file
 * Closed-form co-simulation model (Figure 2, sections 2, 3 and 5).
 *
 * The transceiver runs on the FPGA, the channel in software on the
 * host, and samples cross an FSB link that LEAP virtualizes. The
 * simulation speed for a rate is the line rate scaled by the
 * tightest bottleneck among the FPGA pipeline clock, the software
 * channel's sample throughput and the link. In the paper's
 * configuration the software channel (AWGN noise generation on a
 * quad-core Xeon) is the bottleneck at ~1/3 of the 20 Msample/s line
 * sample rate, using ~55 MB/s of the 700 MB/s link.
 *
 * run() accounts a packet sequence in either discipline from the
 * frame geometry alone: decoupled (latency-insensitive: large
 * pipelined transfers overlap all agents, wall = slowest agent) or
 * lock-step (SCE-MI style: every batch is a synchronous round trip,
 * wall = sum of the agents). That is the section 2 / section 5
 * batching ablation.
 */

#ifndef WILIS_PLATFORM_COSIM_HH
#define WILIS_PLATFORM_COSIM_HH

#include <cstddef>
#include <cstdint>

#include "phy/modulation.hh"

namespace wilis {
namespace platform {

/** Time accounting of one CosimModel::run(). */
struct CosimRunStats {
    /** Payload bits simulated. */
    std::uint64_t payloadBits = 0;
    /** Channel samples moved in each direction. */
    std::uint64_t samples = 0;
    /** Link transfers performed (both directions). */
    std::uint64_t transfers = 0;
    /** Modeled FPGA busy time (TX + RX pipelines), us. */
    double hwUs = 0.0;
    /** Modeled software-channel busy time, us. */
    double swUs = 0.0;
    /** Modeled link busy time (both directions), us. */
    double linkUs = 0.0;
    /**
     * Modeled wall time, us: max of the agents when decoupled, sum
     * when lock-step.
     */
    double wallUs = 0.0;

    /** Simulated throughput in Mb/s. */
    double
    simSpeedMbps() const
    {
        return wallUs > 0.0
                   ? static_cast<double>(payloadBits) / wallUs
                   : 0.0;
    }
};

/** The partitioned co-simulation platform. */
struct CosimModel {
    /** Baseband pipeline clock (section 3: 35 MHz). */
    static constexpr double kFpgaClockMhz = 35.0;
    /** Samples the streaming pipeline consumes per FPGA cycle. */
    static constexpr double kSamplesPerCycle = 1.0;
    /** Bytes per complex sample on the wire. */
    static constexpr int kBytesPerSample = 8;
    /** Sustained link bandwidth per direction (section 3: >700). */
    static constexpr double kLinkMBps = 700.0;
    /** Fixed cost per link transfer (system call, doorbell, DMA). */
    static constexpr double kTransferUs = 20.0;

    /** Software channel throughput in Msamples/s. */
    double swChannelMsps = 6.9;
    /** Samples per link transfer. */
    std::uint64_t batchSamples = 4096;
    /** Latency-insensitive (true) or lock-step (false) discipline. */
    bool decoupled = true;

    /** Fraction of line rate achieved (the same at every rate). */
    double lineRateFraction() const;

    /** Simulated data throughput for @p rate in Mb/s. */
    double simSpeedMbps(const phy::RateParams &rate) const;

    /** One-direction link bandwidth used, MB/s. */
    double linkUtilizationMBps() const;

    /** Account @p num_packets packets of @p payload_bits at @p rate. */
    CosimRunStats run(const phy::RateParams &rate, size_t payload_bits,
                      std::uint64_t num_packets) const;
};

} // namespace platform
} // namespace wilis

#endif // WILIS_PLATFORM_COSIM_HH
