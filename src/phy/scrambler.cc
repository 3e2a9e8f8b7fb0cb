#include "phy/scrambler.hh"

#include "common/logging.hh"

namespace wilis {
namespace phy {

Scrambler::Scrambler(std::uint8_t seed)
{
    reset(seed);
}

void
Scrambler::reset(std::uint8_t seed)
{
    wilis_assert((seed & 0x7F) != 0, "scrambler seed must be nonzero");
    state = seed & 0x7F;
}

void
Scrambler::process(BitView in, BitSpan out)
{
    wilis_assert(in.size() == out.size(),
                 "scrambler span mismatch: %zu vs %zu", in.size(),
                 out.size());
    for (size_t i = 0; i < in.size(); ++i)
        out[i] = process(in[i]);
}

void
Scrambler::pilotPolarity(int out[127])
{
    Scrambler s(0x7F);
    for (int i = 0; i < 127; ++i)
        out[i] = s.nextPrbsBit() ? -1 : 1;
}

} // namespace phy
} // namespace wilis
