#include "phy/modulation.hh"

#include <array>
#include <cmath>

#include "common/logging.hh"

namespace wilis {
namespace phy {

int
bitsPerSubcarrier(Modulation m)
{
    switch (m) {
      case Modulation::BPSK:
        return 1;
      case Modulation::QPSK:
        return 2;
      case Modulation::QAM16:
        return 4;
      case Modulation::QAM64:
        return 6;
    }
    wilis_panic("bad modulation %d", static_cast<int>(m));
}

double
modulationLlrScale(Modulation m)
{
    // LLR = 4 * Es/N0 * d(y) / sqrt(norm), where norm is the average-
    // energy normalization of the constellation (1, 2, 10, 42).
    switch (m) {
      case Modulation::BPSK:
        return 4.0;
      case Modulation::QPSK:
        return 4.0 / std::sqrt(2.0);
      case Modulation::QAM16:
        return 4.0 / std::sqrt(10.0);
      case Modulation::QAM64:
        return 4.0 / std::sqrt(42.0);
    }
    wilis_panic("bad modulation %d", static_cast<int>(m));
}

std::string
RateParams::name() const
{
    return strprintf("%s %s (%g Mbps)",
                     kModulationNames.name(modulation).data(),
                     kCodeRateNames.name(codeRate).data(), lineRateMbps);
}

namespace {

const std::array<RateParams, kNumRates> rate_table = {{
    {Modulation::BPSK, CodeRate::R12, 6.0, 1, 48, 24},
    {Modulation::BPSK, CodeRate::R34, 9.0, 1, 48, 36},
    {Modulation::QPSK, CodeRate::R12, 12.0, 2, 96, 48},
    {Modulation::QPSK, CodeRate::R34, 18.0, 2, 96, 72},
    {Modulation::QAM16, CodeRate::R12, 24.0, 4, 192, 96},
    {Modulation::QAM16, CodeRate::R34, 36.0, 4, 192, 144},
    {Modulation::QAM64, CodeRate::R23, 48.0, 6, 288, 192},
    {Modulation::QAM64, CodeRate::R34, 54.0, 6, 288, 216},
}};

} // namespace

const RateParams &
rateTable(RateIndex idx)
{
    wilis_assert(idx >= 0 && idx < kNumRates, "rate index %d out of "
                 "range", idx);
    return rate_table[static_cast<size_t>(idx)];
}

} // namespace phy
} // namespace wilis
