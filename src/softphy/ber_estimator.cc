#include "softphy/ber_estimator.hh"

#include <cmath>

#include "common/logging.hh"
#include "softphy/llr_ber.hh"

namespace wilis {
namespace softphy {

BerTable::BerTable()
{
    table.fill(0.5);
}

BerTable
BerTable::fromScale(double scale, double llr_max)
{
    wilis_assert(scale > 0.0, "BER table needs a positive scale");
    wilis_assert(llr_max > 0.0, "BER table needs a positive range");
    BerTable t;
    t.scale_ = scale;
    t.llr_max_ = llr_max;
    for (int i = 0; i < kEntries; ++i) {
        double hint = (static_cast<double>(i) + 0.5) * llr_max /
                      static_cast<double>(kEntries);
        t.table[static_cast<size_t>(i)] = berFromHint(hint, scale);
    }
    return t;
}

double
BerTable::lookup(double hint) const
{
    if (hint < 0.0)
        hint = 0.0;
    // Saturated hints (including SOVA's infinite "never
    // contradicted" confidence) clamp to the most confident entry.
    if (hint >= llr_max_)
        return table[kEntries - 1];
    int idx = static_cast<int>(hint / llr_max_ *
                               static_cast<double>(kEntries));
    return table[static_cast<size_t>(idx)];
}

namespace {

size_t
modIndex(phy::Modulation mod)
{
    return static_cast<size_t>(mod);
}

} // namespace

void
BerEstimator::setTable(phy::Modulation mod, BerTable table)
{
    tables[modIndex(mod)] = table;
    present[modIndex(mod)] = true;
}

bool
BerEstimator::hasTable(phy::Modulation mod) const
{
    return present[modIndex(mod)];
}

const BerTable &
BerEstimator::tableFor(phy::Modulation mod) const
{
    wilis_assert(present[modIndex(mod)],
                 "no BER table calibrated for %s",
                 phy::kModulationNames.name(mod).data());
    return tables[modIndex(mod)];
}

double
BerEstimator::perBitBer(phy::Modulation mod, double hint) const
{
    return tableFor(mod).lookup(hint);
}

double
BerEstimator::packetBer(phy::Modulation mod,
                        std::span<const SoftDecision> soft) const
{
    wilis_assert(!soft.empty(), "empty packet");
    const BerTable &t = tableFor(mod);
    double sum = 0.0;
    for (const auto &d : soft)
        sum += t.lookup(d.llr);
    return sum / static_cast<double>(soft.size());
}

void
BerEstimator::setRateTable(phy::RateIndex rate, BerTable table)
{
    rate_tables[static_cast<size_t>(rate)] = table;
    rate_present[static_cast<size_t>(rate)] = true;
}

const BerTable &
BerEstimator::tableForRate(phy::RateIndex rate) const
{
    wilis_assert(rate_present[static_cast<size_t>(rate)],
                 "no BER table calibrated for rate %d", rate);
    return rate_tables[static_cast<size_t>(rate)];
}

double
BerEstimator::packetBerForRate(
    phy::RateIndex rate, std::span<const SoftDecision> soft) const
{
    wilis_assert(!soft.empty(), "empty packet");
    const BerTable &t = tableForRate(rate);
    double sum = 0.0;
    for (const auto &d : soft)
        sum += t.lookup(d.llr);
    return sum / static_cast<double>(soft.size());
}

} // namespace softphy
} // namespace wilis
