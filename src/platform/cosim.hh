/**
 * @file
 * Co-simulation performance model and driver.
 *
 * CosimModel is the analytic throughput model behind Figure 2: the
 * achievable simulation speed for a rate is the line rate scaled by
 * the tightest bottleneck among the FPGA pipeline clock, the
 * software channel's sample throughput, and the link. In the paper's
 * configuration the software channel (AWGN noise generation on a
 * quad-core Xeon) is the bottleneck at ~1/3 of the 20 Msample/s line
 * sample rate, using ~55 MB/s of the 700 MB/s link.
 *
 * CosimDriver actually runs a partitioned simulation -- "hardware"
 * transceiver and "software" channel exchanging sample batches
 * through a LinkModel -- and accounts modeled time in both the
 * decoupled (latency-insensitive, overlapped) and lock-step (SCE-MI
 * style, serialized) disciplines, which is the section 2 / section 5
 * batching ablation.
 */

#ifndef WILIS_PLATFORM_COSIM_HH
#define WILIS_PLATFORM_COSIM_HH

#include <cstdint>

#include "phy/modulation.hh"
#include "platform/link.hh"
#include "sim/testbench.hh"

namespace wilis {
namespace platform {

/** Analytic Figure 2 model. */
struct CosimModel {
    /** Baseband pipeline clock (section 3: 35 MHz). */
    double fpgaClockMhz = 35.0;
    /** Samples consumed per FPGA cycle (streaming pipeline). */
    double samplesPerCycle = 1.0;
    /** Software channel throughput in Msamples/s. */
    double swChannelMsps = 6.9;
    /** Link model (one direction). */
    LinkModel::Params link;
    /** Samples per link transfer batch. */
    std::uint64_t batchSamples = 4096;
    /** Bytes per complex sample on the wire. */
    int bytesPerSample = 8;

    /** 802.11a/g line sample rate (20 MHz channelization). */
    static constexpr double kLineSampleMsps = 20.0;

    /** Simulated data throughput for @p rate in Mb/s. */
    double simSpeedMbps(const phy::RateParams &rate) const;

    /** Fraction of line rate achieved (same for all rates). */
    double lineRateFraction() const;

    /** One-direction link bandwidth used, MB/s. */
    double linkUtilizationMBps() const;
};

/** Result of one CosimDriver run. */
struct CosimRunStats {
    /** Payload bits simulated. */
    std::uint64_t payloadBits = 0;
    /** Channel samples moved in each direction. */
    std::uint64_t samples = 0;
    /** Link transfers performed. */
    std::uint64_t transfers = 0;
    /** Modeled FPGA busy time, us. */
    double hwUs = 0.0;
    /** Modeled software-channel busy time, us. */
    double swUs = 0.0;
    /** Modeled link busy time (both directions), us. */
    double linkUs = 0.0;
    /**
     * Modeled wall time, us: max of the components when decoupled
     * (LI batching overlaps them), sum when lock-step.
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

/** Partitioned co-simulation driver. */
class CosimDriver
{
  public:
    /** Driver configuration. */
    struct Params {
        /** Samples per link batch (1 symbol = lock-step-ish). */
        std::uint64_t batchSamples = 4096;
        /**
         * true: latency-insensitive discipline -- large pipelined
         * transfers, components overlap (wall = max). false:
         * lock-step discipline -- each batch is a synchronous round
         * trip (wall = sum of per-batch costs).
         */
        bool decoupled = true;
        /** FPGA clock for the hardware partition. */
        double fpgaClockMhz = 35.0;
        /** Link parameters. */
        LinkModel::Params link;
        /** Measured software channel throughput (Msamples/s). */
        double swChannelMsps = 6.9;
    };

    /** Drive the transceiver @p spec describes under @p p. */
    CosimDriver(const sim::ScenarioSpec &spec, const Params &p);

    /**
     * Run @p num_packets packets of @p payload_bits end to end,
     * moving samples through the modeled link, and return the time
     * accounting.
     */
    CosimRunStats run(size_t payload_bits, std::uint64_t num_packets);

  private:
    sim::Testbench tb;
    Params params;
};

/**
 * Measure this host's software channel throughput in Msamples/s
 * (noise generation + fading application on @p threads threads).
 */
double measureChannelThroughputMsps(const std::string &channel_name,
                                    const li::Config &channel_cfg,
                                    double seconds = 0.3);

} // namespace platform
} // namespace wilis

#endif // WILIS_PLATFORM_COSIM_HH
