#include "mac/ppr.hh"

#include <algorithm>

#include "common/logging.hh"

namespace wilis {
namespace mac {

PprOutcome
PprPolicy::evaluate(phy::Modulation mod,
                    std::span<const SoftDecision> soft,
                    BitView ref) const
{
    wilis_assert(soft.size() == ref.size(),
                 "soft/ref size mismatch %zu vs %zu", soft.size(),
                 ref.size());
    const size_t n = soft.size();
    const size_t chunk_sz = static_cast<size_t>(chunk);

    // Chunk at a time: one pass decides the chunk flag, a second
    // accounts outcomes -- no per-packet flag buffer needed.
    PprOutcome out;
    out.totalBits = n;
    for (size_t base = 0; base < n; base += chunk_sz) {
        const size_t end = std::min(base + chunk_sz, n);
        bool chunk_flagged = false;
        for (size_t i = base; i < end && !chunk_flagged; ++i)
            chunk_flagged =
                est->perBitBer(mod, soft[i].llr) > threshold;
        for (size_t i = base; i < end; ++i) {
            bool wrong = soft[i].bit != ref[i];
            if (chunk_flagged)
                ++out.flaggedBits;
            if (wrong && chunk_flagged)
                ++out.caughtErrors;
            else if (wrong)
                ++out.missedErrors;
        }
    }
    return out;
}

} // namespace mac
} // namespace wilis
