#include "platform/cosim.hh"

#include <algorithm>

#include "common/logging.hh"
#include "phy/ofdm_symbol.hh"

namespace wilis {
namespace platform {

namespace {

/** Modeled duration of one link transfer of @p samples, us. */
double
transferUs(std::uint64_t samples)
{
    const auto bytes =
        samples * static_cast<std::uint64_t>(CosimModel::kBytesPerSample);
    return CosimModel::kTransferUs +
           static_cast<double>(bytes) / CosimModel::kLinkMBps;
}

} // namespace

double
CosimModel::lineRateFraction() const
{
    // Each agent's sample throughput; the slowest sets the pace.
    const double fpga_msps = kFpgaClockMhz * kSamplesPerCycle;
    const double link_msps =
        static_cast<double>(batchSamples) / transferUs(batchSamples);
    return std::min({fpga_msps, swChannelMsps, link_msps}) /
           phy::OfdmGeometry::kSampleRateMhz;
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
    return lineRateFraction() * phy::OfdmGeometry::kSampleRateMhz *
           kBytesPerSample;
}

CosimRunStats
CosimModel::run(const phy::RateParams &rate, size_t payload_bits,
                std::uint64_t num_packets) const
{
    wilis_assert(batchSamples >= 1, "batch must be >= 1");
    // Every packet's samples cross to the software channel and back
    // in full batches plus one partial batch.
    const std::uint64_t n =
        phy::OfdmGeometry::numSamples(rate, payload_bits);
    const std::uint64_t full = n / batchSamples;
    const std::uint64_t rest = n % batchSamples;
    const double per_packet_link_us =
        static_cast<double>(full) * transferUs(batchSamples) +
        (rest != 0 ? transferUs(rest) : 0.0);

    CosimRunStats s;
    s.payloadBits = num_packets * payload_bits;
    s.samples = num_packets * n;
    s.transfers = 2 * num_packets * (full + (rest != 0 ? 1 : 0));
    const double samples = static_cast<double>(s.samples);
    s.hwUs = 2.0 * samples / (kFpgaClockMhz * kSamplesPerCycle);
    s.swUs = samples / swChannelMsps;
    s.linkUs =
        2.0 * static_cast<double>(num_packets) * per_packet_link_us;
    s.wallUs = decoupled ? std::max({s.hwUs, s.swUs, s.linkUs})
                         : s.hwUs + s.swUs + s.linkUs;
    return s;
}

} // namespace platform
} // namespace wilis
