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

        // Flat SIMD-friendly copies plus the butterfly-layout
        // assertions the vector ACS kernels rely on (see
        // common/kernels.hh): a shift-register code addresses
        // predecessors as adjacent even/odd pairs and forward
        // successors as half-offset duplicates.
        Flat &f = t.flat;
        for (int s = 0; s < kStates; ++s) {
            f.pred0[s] = phy::ConvCode::predecessor(s, 0);
            f.pred1[s] = phy::ConvCode::predecessor(s, 1);
            f.revOut0[s] = t.revOut[s][0];
            f.revOut1[s] = t.revOut[s][1];
            f.next0[s] = t.fwdNext[s][0];
            f.next1[s] = t.fwdNext[s][1];
            f.fwdOut0[s] = t.fwdOut[s][0];
            f.fwdOut1[s] = t.fwdOut[s][1];
            f.revOut0_16[s] =
                static_cast<std::int16_t>(t.revOut[s][0]);
            f.revOut1_16[s] =
                static_cast<std::int16_t>(t.revOut[s][1]);

            wilis_assert(f.pred0[s] == 2 * (s % (kStates / 2)) &&
                             f.pred1[s] == f.pred0[s] + 1,
                         "state %d breaks the predecessor butterfly",
                         s);
            wilis_assert(f.next0[s] == s / 2 &&
                             f.next1[s] == kStates / 2 + s / 2,
                         "state %d breaks the successor butterfly",
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
        return kernels::TrellisView{
            kStates,   f.pred0,      f.pred1,      f.revOut0,
            f.revOut1, f.next0,      f.next1,      f.fwdOut0,
            f.fwdOut1, f.revOut0_16, f.revOut1_16,
        };
    }();
    return v;
}

} // namespace decode
} // namespace wilis
