#include "platform/link.hh"

namespace wilis {
namespace platform {

double
LinkModel::transferUs(std::uint64_t bytes) const
{
    return params.perTransferOverheadUs +
           static_cast<double>(bytes) / params.bandwidthMBps;
}

double
LinkModel::effectiveBandwidthMBps(std::uint64_t batch_bytes) const
{
    if (batch_bytes == 0)
        return 0.0;
    return static_cast<double>(batch_bytes) / transferUs(batch_bytes);
}

void
LinkModel::record(std::uint64_t bytes)
{
    total_bytes += bytes;
    ++total_transfers;
    busy_us += transferUs(bytes);
}

} // namespace platform
} // namespace wilis
