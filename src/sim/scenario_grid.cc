#include "sim/scenario_grid.hh"

#include "common/logging.hh"
#include "common/random.hh"

namespace wilis {
namespace sim {

size_t
ScenarioGrid::cellCount() const
{
    size_t n = 1;
    n *= rates.empty() ? 1 : rates.size();
    n *= channels.empty() ? 1 : channels.size();
    n *= snrsDb.empty() ? 1 : snrsDb.size();
    n *= payloads.empty() ? 1 : payloads.size();
    return n;
}

ScenarioSpec
ScenarioGrid::cell(size_t index) const
{
    wilis_assert(index < cellCount(), "cell index %zu out of %zu",
                 index, cellCount());

    const size_t n_rates = rates.empty() ? 1 : rates.size();
    const size_t n_chans = channels.empty() ? 1 : channels.size();
    const size_t n_snrs = snrsDb.empty() ? 1 : snrsDb.size();
    const size_t n_pay = payloads.empty() ? 1 : payloads.size();

    // Row-major decomposition: rate is the slowest axis, payload the
    // fastest. The layout is part of the replayability contract (a
    // cell index always names the same scenario), so tests pin it.
    size_t rest = index;
    const size_t i_pay = rest % n_pay;
    rest /= n_pay;
    const size_t i_snr = rest % n_snrs;
    rest /= n_snrs;
    const size_t i_chan = rest % n_chans;
    rest /= n_chans;
    const size_t i_rate = rest;
    (void)n_rates;

    ScenarioSpec spec = base;
    if (!rates.empty())
        spec.rate = rates[i_rate];
    if (!channels.empty())
        spec.channel = channels[i_chan];
    if (!snrsDb.empty())
        spec = spec.withSnrDb(snrsDb[i_snr]);
    if (!payloads.empty())
        spec.payloadBits = payloads[i_pay];

    // Replayable per-cell seeding: independent channel noise and
    // payload streams per cell, derived only from (grid seed, cell).
    CounterRng cell_rng = CounterRng(seed).fork(index);
    spec = spec.withChannelSeed(cell_rng.at(1) >> 1);
    spec.payloadSeed = cell_rng.at(2);
    spec.name = spec.label();
    return spec;
}

} // namespace sim
} // namespace wilis
