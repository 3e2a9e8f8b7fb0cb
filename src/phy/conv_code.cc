#include "phy/conv_code.hh"

#include <bit>

#include "common/logging.hh"

namespace wilis {
namespace phy {

ConvCode::ConvCode()
{
    // State s holds the previous 6 input bits, most recent in bit 5.
    // The 7-bit encoder register for input x is (x << 6) | s, with the
    // current input in bit 6 (tap D^0) and the oldest bit in bit 0
    // (tap D^6), matching the octal generator conventions.
    for (int s = 0; s < kStates; ++s) {
        for (int x = 0; x < 2; ++x) {
            unsigned reg = (static_cast<unsigned>(x) << 6) |
                           static_cast<unsigned>(s);
            unsigned o0 = std::popcount(reg & kG0) & 1u;
            unsigned o1 = std::popcount(reg & kG1) & 1u;
            output[static_cast<size_t>(s)][x] = o0 | (o1 << 1);
            next_state[static_cast<size_t>(s)][x] =
                static_cast<int>((reg >> 1) & 0x3F);
        }
    }
}

void
ConvCode::encode(BitView data, bool terminate, BitSpan out) const
{
    wilis_assert(out.size() ==
                     2 * (data.size() +
                          (terminate ? static_cast<size_t>(kTailBits)
                                     : 0)),
                 "encoder output span size %zu for %zu data bits",
                 out.size(), data.size());
    int state = 0;
    size_t w = 0;
    auto emit = [&](Bit x) {
        unsigned o = outputBits(state, x);
        out[w++] = static_cast<Bit>(o & 1);
        out[w++] = static_cast<Bit>((o >> 1) & 1);
        state = nextState(state, x);
    };
    for (Bit b : data)
        emit(b & 1);
    if (terminate) {
        for (int i = 0; i < kTailBits; ++i)
            emit(0);
    }
}

const ConvCode &
convCode()
{
    static const ConvCode code;
    return code;
}

} // namespace phy
} // namespace wilis
