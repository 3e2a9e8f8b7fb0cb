#include "mac/oracle.hh"

namespace wilis {
namespace mac {

RateOracle::RateOracle(const sim::ScenarioSpec &base)
{
    for (int r = 0; r < phy::kNumRates; ++r)
        benches[static_cast<size_t>(r)] =
            std::make_unique<sim::Testbench>(base.withRate(r));
}

int
RateOracle::optimalRate(size_t payload_bits,
                        std::uint64_t packet_index)
{
    for (int r = phy::kNumRates - 1; r >= 0; --r) {
        sim::FrameResult res =
            benches[static_cast<size_t>(r)]->runFrame(payload_bits,
                                                      packet_index);
        if (res.ok)
            return r;
    }
    return -1;
}

sim::FrameResult
RateOracle::runFrameAtRate(phy::RateIndex rate, size_t payload_bits,
                           std::uint64_t packet_index)
{
    return benches[static_cast<size_t>(rate)]->runFrame(
        payload_bits, packet_index);
}

double
SelectionStats::underPct() const
{
    return total() ? 100.0 * static_cast<double>(under) /
                         static_cast<double>(total())
                   : 0.0;
}

double
SelectionStats::accuratePct() const
{
    return total() ? 100.0 * static_cast<double>(accurate) /
                         static_cast<double>(total())
                   : 0.0;
}

double
SelectionStats::overPct() const
{
    return total() ? 100.0 * static_cast<double>(over) /
                         static_cast<double>(total())
                   : 0.0;
}

} // namespace mac
} // namespace wilis
