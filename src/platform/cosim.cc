#include "platform/cosim.hh"

#include <algorithm>
#include <chrono>

#include "channel/channel.hh"
#include "common/logging.hh"

namespace wilis {
namespace platform {

double
CosimModel::lineRateFraction() const
{
    // Per-stage speeds normalized to the 20 Msample/s line rate.
    double fpga = fpgaClockMhz * samplesPerCycle / kLineSampleMsps;
    double sw = swChannelMsps / kLineSampleMsps;
    LinkModel link_model(link);
    double link_msps =
        link_model.effectiveBandwidthMBps(
            batchSamples * static_cast<std::uint64_t>(bytesPerSample)) /
        static_cast<double>(bytesPerSample);
    double lnk = link_msps / kLineSampleMsps;
    return std::min({fpga, sw, lnk});
}

double
CosimModel::simSpeedMbps(const phy::RateParams &rate) const
{
    return rate.lineRateMbps * lineRateFraction();
}

double
CosimModel::linkUtilizationMBps() const
{
    // One direction: achieved sample rate times wire bytes/sample.
    return lineRateFraction() * kLineSampleMsps *
           static_cast<double>(bytesPerSample);
}

CosimDriver::CosimDriver(const sim::ScenarioSpec &spec,
                         const Params &p)
    : tb(spec), params(p)
{
    wilis_assert(params.batchSamples >= 1, "batch must be >= 1");
}

CosimRunStats
CosimDriver::run(size_t payload_bits, std::uint64_t num_packets)
{
    CosimRunStats stats;
    LinkModel to_sw(params.link);
    LinkModel to_hw(params.link);

    const double fpga_us_per_sample =
        1.0 / params.fpgaClockMhz; // 1 sample per cycle
    const double sw_us_per_sample = 1.0 / params.swChannelMsps;
    const int bytes_per_sample = 8;

    double lockstep_wall = 0.0;

    for (std::uint64_t p = 0; p < num_packets; ++p) {
        // Modulate (TX pipeline on the FPGA), apply the software
        // channel, demodulate (RX pipeline on the FPGA); the
        // accounting below charges each stage to its partition.
        tb.runFrame(payload_bits, p);
        const std::uint64_t n = tb.tx().numSamples(payload_bits);
        stats.samples += n;
        stats.payloadBits += payload_bits;
        stats.hwUs += 2.0 * static_cast<double>(n) *
                      fpga_us_per_sample; // TX + RX pipelines

        // Move TX samples to the software channel and back in
        // batches, applying impairments in software.
        for (std::uint64_t off = 0; off < n;
             off += params.batchSamples) {
            std::uint64_t len =
                std::min<std::uint64_t>(params.batchSamples, n - off);
            std::uint64_t bytes =
                len * static_cast<std::uint64_t>(bytes_per_sample);
            to_sw.record(bytes);
            to_hw.record(bytes);
            stats.transfers += 2;
            double sw_cost =
                static_cast<double>(len) * sw_us_per_sample;
            stats.swUs += sw_cost;
            if (!params.decoupled) {
                // Lock-step: the round trip serializes with the
                // hardware and software processing of this batch.
                lockstep_wall += to_sw.transferUs(bytes) +
                                 to_hw.transferUs(bytes) + sw_cost +
                                 2.0 * static_cast<double>(len) *
                                     fpga_us_per_sample;
            }
        }
    }

    stats.linkUs = to_sw.busyUs() + to_hw.busyUs();
    if (params.decoupled) {
        // Latency-insensitive pipelining overlaps the three agents;
        // wall time is the slowest one.
        stats.wallUs =
            std::max({stats.hwUs, stats.swUs, stats.linkUs});
    } else {
        stats.wallUs = lockstep_wall;
    }
    return stats;
}

double
measureChannelThroughputMsps(const std::string &channel_name,
                             const li::Config &channel_cfg,
                             double seconds)
{
    auto chan = channel::makeChannel(channel_name, channel_cfg);
    SampleVec buf(1 << 15, Sample(1.0, 0.0));

    // Wall-clock measurement is this helper's entire job: it only
    // feeds bench/abl_channel_threads' throughput report, never a
    // simulation decision, so the determinism ban does not apply.
    using clock =
        std::chrono::steady_clock; // wilis-lint: allow(banned-call)

    auto start = clock::now();
    std::uint64_t samples = 0;
    std::uint64_t packet = 0;
    for (;;) {
        chan->apply(buf, packet++);
        samples += buf.size();
        double elapsed =
            std::chrono::duration<double>(clock::now() - start)
                .count();
        if (elapsed >= seconds)
            return static_cast<double>(samples) / elapsed / 1e6;
    }
}

} // namespace platform
} // namespace wilis
