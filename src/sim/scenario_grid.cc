#include "sim/scenario_grid.hh"

#include "common/lockstep.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "sim/testbench.hh"

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

std::vector<CellResult>
sweepGrid(const ScenarioGrid &grid, const GridSweepOptions &opt)
{
    wilis_assert(opt.shardCount >= 1 && opt.shardIndex >= 0 &&
                     opt.shardIndex < opt.shardCount,
                 "grid shard %d/%d out of range", opt.shardIndex,
                 opt.shardCount);
    // This process's round-robin share of the cell indices (all of
    // them for the default 1-shard options).
    std::vector<size_t> owned;
    for (size_t c = static_cast<size_t>(opt.shardIndex);
         c < grid.cellCount();
         c += static_cast<size_t>(opt.shardCount))
        owned.push_back(c);
    std::vector<CellResult> results(owned.size());

    // Shard by cell: each worker claims whole cells from the team's
    // shared counter and owns a private Testbench (arena included)
    // while it runs one. Writes go to the cell's own results slot,
    // ordered before the return by the team's join.
    auto run_cell = [&](std::uint64_t c) {
        const size_t idx = owned[static_cast<size_t>(c)];
        CellResult &res = results[static_cast<size_t>(c)];
        res.cellIndex = idx;
        res.spec = grid.cell(idx);

        Testbench tb(res.spec);
        for (std::uint64_t p = 0; p < opt.packetsPerCell; ++p) {
            FrameResult fr = tb.runFrame(res.spec.payloadBits, p);
            res.bits.bits += fr.txPayload.size();
            res.bits.errors += fr.bitErrors;
            res.packets += 1;
            res.packetErrors += fr.ok ? 0 : 1;
        }
        if (opt.onCell)
            opt.onCell(res);
    };

    LockstepTeam team(LockstepTeam::workerCount(opt.threads, owned.size()));
    team.forEach(owned.size(), [&](int, std::uint64_t c) { run_cell(c); });
    return results;
}

} // namespace sim
} // namespace wilis
