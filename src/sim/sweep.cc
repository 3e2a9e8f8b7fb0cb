#include "sim/sweep.hh"

namespace wilis {
namespace sim {

ErrorStats
measureBer(const ScenarioSpec &spec, std::uint64_t num_packets,
           int threads)
{
    ErrorStats total;
    for (const ErrorStats &s : sweepPackets(
             {spec}, num_packets, threads,
             [](size_t, std::uint64_t, const FrameResult &res) {
                 return ErrorStats{res.txPayload.size(), res.bitErrors};
             }))
        total.merge(s);
    return total;
}

} // namespace sim
} // namespace wilis
