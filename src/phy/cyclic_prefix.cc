#include "phy/cyclic_prefix.hh"

#include <algorithm>

#include "common/logging.hh"

namespace wilis {
namespace phy {

void
addCyclicPrefix(SampleView body, SampleSpan out)
{
    wilis_assert(body.size() == OfdmGeometry::kFftSize,
                 "symbol body size %zu", body.size());
    wilis_assert(out.size() == OfdmGeometry::kSymbolLen,
                 "CP output size %zu", out.size());
    std::copy(body.end() - OfdmGeometry::kCpLen, body.end(),
              out.begin());
    std::copy(body.begin(), body.end(),
              out.begin() + OfdmGeometry::kCpLen);
}

void
removeCyclicPrefix(SampleView symbol, SampleSpan out)
{
    wilis_assert(symbol.size() == OfdmGeometry::kSymbolLen,
                 "symbol size %zu", symbol.size());
    wilis_assert(out.size() == OfdmGeometry::kFftSize,
                 "CP-strip output size %zu", out.size());
    std::copy(symbol.begin() + OfdmGeometry::kCpLen, symbol.end(),
              out.begin());
}

} // namespace phy
} // namespace wilis
