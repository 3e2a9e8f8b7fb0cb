#include "phy/ofdm_symbol.hh"

#include "common/logging.hh"
#include "phy/conv_code.hh"
#include "phy/scrambler.hh"

namespace wilis {
namespace phy {

namespace {

constexpr std::array<int, OfdmGeometry::kPilotCarriers> pilot_logical =
    {-21, -7, 7, 21};

// Relative polarity of the four pilot tones within one symbol.
constexpr std::array<int, OfdmGeometry::kPilotCarriers> pilot_sign = {
    1, 1, 1, -1};

int
logicalToBin(int k)
{
    return k >= 0 ? k : OfdmGeometry::kFftSize + k;
}

/** The 127-long pilot polarity sequence p_n, generated once. */
const std::array<int, 127> &
polarity()
{
    static const std::array<int, 127> seq = [] {
        std::array<int, 127> p{};
        Scrambler::pilotPolarity(p.data());
        return p;
    }();
    return seq;
}

} // namespace

int
OfdmGeometry::dataBin(int i)
{
    wilis_assert(i >= 0 && i < kDataCarriers, "data carrier %d", i);
    return kDataBins[static_cast<size_t>(i)];
}

int
OfdmGeometry::pilotBin(int i)
{
    wilis_assert(i >= 0 && i < kPilotCarriers, "pilot carrier %d", i);
    return logicalToBin(pilot_logical[static_cast<size_t>(i)]);
}

int
OfdmGeometry::numSymbols(const RateParams &rate, size_t payload_bits)
{
    const size_t with_tail = payload_bits + ConvCode::kTailBits;
    const auto n_dbps = static_cast<size_t>(rate.nDbps);
    return static_cast<int>((with_tail + n_dbps - 1) / n_dbps);
}

size_t
OfdmGeometry::paddedInfoBits(const RateParams &rate, size_t payload_bits)
{
    return static_cast<size_t>(numSymbols(rate, payload_bits)) *
               static_cast<size_t>(rate.nDbps) -
           ConvCode::kTailBits;
}

size_t
OfdmGeometry::numSamples(const RateParams &rate, size_t payload_bits)
{
    return static_cast<size_t>(numSymbols(rate, payload_bits)) *
           kSymbolLen;
}

void
PilotTracker::insertPilots(SampleSpan bins)
{
    wilis_assert(bins.size() == OfdmGeometry::kFftSize,
                 "bad bin buffer size %zu", bins.size());
    int p = polarity()[static_cast<size_t>(symbol_index % 127)];
    for (int i = 0; i < OfdmGeometry::kPilotCarriers; ++i) {
        bins[static_cast<size_t>(OfdmGeometry::pilotBin(i))] =
            Sample(p * pilot_sign[static_cast<size_t>(i)], 0.0);
    }
    ++symbol_index;
}

} // namespace phy
} // namespace wilis
