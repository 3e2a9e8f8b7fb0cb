#include "decode/trellis_kernels.hh"

#include "common/logging.hh"

namespace wilis {
namespace decode {

const TrellisTables &
TrellisTables::get()
{
    static const TrellisTables tables = [] {
        TrellisTables t;
        const phy::ConvCode &code = phy::convCode();
        for (int s = 0; s < kStates; ++s) {
            for (int b = 0; b < 2; ++b) {
                int pred = phy::ConvCode::predecessor(s, b);
                int x = phy::ConvCode::inputOf(s);
                t.revOut[s][b] = static_cast<std::uint8_t>(
                    code.outputBits(pred, x));
            }
            for (int x = 0; x < 2; ++x) {
                t.fwdNext[s][x] =
                    static_cast<std::uint8_t>(code.nextState(s, x));
                t.fwdOut[s][x] =
                    static_cast<std::uint8_t>(code.outputBits(s, x));
            }
        }

        // Flat SIMD-friendly copies plus the layout assertions the
        // vector kernels rely on (see common/kernels.hh): a
        // shift-register code addresses predecessors as adjacent
        // even/odd pairs and forward successors as half-offset
        // duplicates, and a code whose generators all tap both the
        // newest and the oldest register bit (133/171 does) gives the
        // two branches of every butterfly complementary outputs, so
        // their branch metrics are m and -m.
        Flat &f = t.flat;
        for (int s = 0; s < kStates; ++s) {
            f.revOut0[s] = t.revOut[s][0];
            f.revOut1[s] = t.revOut[s][1];
            f.fwdOut0[s] = t.fwdOut[s][0];

            const int pred0 = phy::ConvCode::predecessor(s, 0);
            wilis_assert(pred0 == 2 * (s % (kStates / 2)) &&
                             phy::ConvCode::predecessor(s, 1) ==
                                 pred0 + 1,
                         "state %d breaks the predecessor butterfly",
                         s);
            wilis_assert(t.fwdNext[s][0] == s / 2 &&
                             t.fwdNext[s][1] == kStates / 2 + s / 2,
                         "state %d breaks the successor butterfly",
                         s);
            wilis_assert(t.revOut[s][1] == (t.revOut[s][0] ^ 3) &&
                             t.fwdOut[s][1] == (t.fwdOut[s][0] ^ 3),
                         "state %d has non-complementary branch "
                         "outputs",
                         s);
        }
        return t;
    }();
    return tables;
}

const kernels::TrellisView &
TrellisTables::view()
{
    // Built against the final static storage of get() so the
    // pointers stay valid for the process lifetime.
    static const kernels::TrellisView v = [] {
        const Flat &f = get().flat;
        return kernels::TrellisView{kStates, f.revOut0, f.revOut1,
                                    f.fwdOut0};
    }();
    return v;
}

} // namespace decode
} // namespace wilis
