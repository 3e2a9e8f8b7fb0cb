#include "phy/puncture.hh"

#include "common/logging.hh"

namespace wilis {
namespace phy {

namespace {
// Keep-patterns over the interleaved A/B rate-1/2 stream.
const Bit pat_r12[2] = {1, 1};
const Bit pat_r23[4] = {1, 1, 1, 0};
const Bit pat_r34[6] = {1, 1, 1, 0, 0, 1};
} // namespace

void
Puncturer::pattern(const Bit *&pat, size_t &period) const
{
    switch (rate) {
      case CodeRate::R12:
        pat = pat_r12;
        period = 2;
        return;
      case CodeRate::R23:
        pat = pat_r23;
        period = 4;
        return;
      case CodeRate::R34:
        pat = pat_r34;
        period = 6;
        return;
    }
    wilis_panic("bad code rate");
}

bool
Puncturer::kept(size_t i) const
{
    const Bit *pat;
    size_t period;
    pattern(pat, period);
    return pat[i % period] != 0;
}

void
Puncturer::puncture(BitView coded, BitSpan out) const
{
    const Bit *pat;
    size_t period;
    pattern(pat, period);
    wilis_assert(coded.size() % period == 0,
                 "coded length %zu not a multiple of puncture period "
                 "%zu", coded.size(), period);
    wilis_assert(out.size() == puncturedLength(coded.size()),
                 "puncture output span size %zu, expected %zu",
                 out.size(), puncturedLength(coded.size()));
    size_t w = 0;
    for (size_t i = 0; i < coded.size(); ++i) {
        if (pat[i % period])
            out[w++] = coded[i];
    }
}

void
Puncturer::depuncture(SoftView soft, SoftSpan out) const
{
    const Bit *pat;
    size_t period;
    pattern(pat, period);
    size_t kept_per_period = 0;
    for (size_t i = 0; i < period; ++i)
        kept_per_period += pat[i];
    wilis_assert(soft.size() % kept_per_period == 0,
                 "punctured length %zu not a multiple of %zu",
                 soft.size(), kept_per_period);
    wilis_assert(out.size() == unpuncturedLength(soft.size()),
                 "depuncture output span size %zu, expected %zu",
                 out.size(), unpuncturedLength(soft.size()));
    size_t in = 0;
    size_t w = 0;
    while (in < soft.size()) {
        for (size_t j = 0; j < period; ++j) {
            if (pat[j]) {
                out[w++] = soft[in];
                ++in;
            } else {
                out[w++] = 0; // erasure: no channel information
            }
        }
    }
}

size_t
Puncturer::puncturedLength(size_t coded_len) const
{
    const Bit *pat;
    size_t period;
    pattern(pat, period);
    size_t kept = 0;
    for (size_t i = 0; i < period; ++i)
        kept += pat[i];
    wilis_assert(coded_len % period == 0, "bad coded length %zu",
                 coded_len);
    return coded_len / period * kept;
}

size_t
Puncturer::unpuncturedLength(size_t punct_len) const
{
    const Bit *pat;
    size_t period;
    pattern(pat, period);
    size_t kept = 0;
    for (size_t i = 0; i < period; ++i)
        kept += pat[i];
    wilis_assert(punct_len % kept == 0, "bad punctured length %zu",
                 punct_len);
    return punct_len / kept * period;
}

} // namespace phy
} // namespace wilis
