#include "phy/puncture.hh"

#include <array>

#include "common/logging.hh"

namespace wilis {
namespace phy {

namespace {

// Keep-patterns over the interleaved A/B rate-1/2 stream.
constexpr std::array<Bit, 2> pat_r12 = {1, 1};
constexpr std::array<Bit, 4> pat_r23 = {1, 1, 1, 0};
constexpr std::array<Bit, 6> pat_r34 = {1, 1, 1, 0, 0, 1};

/**
 * Call @p fn with the keep-pattern of @p rate as a fixed-size array,
 * so the per-period loops below unroll with no per-bit index math.
 */
template <typename Fn>
auto
withPattern(CodeRate rate, Fn &&fn)
{
    switch (rate) {
      case CodeRate::R12:
        return fn(pat_r12);
      case CodeRate::R23:
        return fn(pat_r23);
      case CodeRate::R34:
        return fn(pat_r34);
    }
    wilis_panic("bad code rate");
}

template <size_t P>
constexpr size_t
keptPerPeriod(const std::array<Bit, P> &pat)
{
    size_t kept = 0;
    for (Bit b : pat)
        kept += b;
    return kept;
}

} // namespace

bool
Puncturer::kept(size_t i) const
{
    return withPattern(rate, [&](const auto &pat) {
        return pat[i % pat.size()] != 0;
    });
}

void
Puncturer::puncture(BitView coded, BitSpan out) const
{
    withPattern(rate, [&](const auto &pat) {
        const size_t period = pat.size();
        wilis_assert(coded.size() % period == 0,
                     "coded length %zu not a multiple of puncture "
                     "period %zu",
                     coded.size(), period);
        wilis_assert(out.size() == puncturedLength(coded.size()),
                     "puncture output span size %zu, expected %zu",
                     out.size(), puncturedLength(coded.size()));
        Bit *o = out.data();
        for (size_t i = 0; i < coded.size(); i += period) {
            for (size_t j = 0; j < period; ++j) {
                if (pat[j])
                    *o++ = coded[i + j];
            }
        }
    });
}

void
Puncturer::depuncture(SoftView soft, SoftSpan out) const
{
    withPattern(rate, [&](const auto &pat) {
        const size_t period = pat.size();
        const size_t kept = keptPerPeriod(pat);
        wilis_assert(soft.size() % kept == 0,
                     "punctured length %zu not a multiple of %zu",
                     soft.size(), kept);
        wilis_assert(out.size() == unpuncturedLength(soft.size()),
                     "depuncture output span size %zu, expected %zu",
                     out.size(), unpuncturedLength(soft.size()));
        const SoftBit *in = soft.data();
        for (size_t w = 0; w < out.size(); w += period) {
            for (size_t j = 0; j < period; ++j) {
                // Erasure: no channel information.
                out[w + j] = pat[j] ? *in++ : 0;
            }
        }
    });
}

size_t
Puncturer::puncturedLength(size_t coded_len) const
{
    return withPattern(rate, [&](const auto &pat) {
        wilis_assert(coded_len % pat.size() == 0,
                     "bad coded length %zu", coded_len);
        return coded_len / pat.size() * keptPerPeriod(pat);
    });
}

size_t
Puncturer::unpuncturedLength(size_t punct_len) const
{
    return withPattern(rate, [&](const auto &pat) {
        const size_t kept = keptPerPeriod(pat);
        wilis_assert(punct_len % kept == 0, "bad punctured length %zu",
                     punct_len);
        return punct_len / kept * pat.size();
    });
}

} // namespace phy
} // namespace wilis
