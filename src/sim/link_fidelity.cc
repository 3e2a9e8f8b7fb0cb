#include "sim/link_fidelity.hh"

#include "common/logging.hh"
#include "softphy/calibration_table.hh"

namespace wilis {
namespace sim {

bool
FidelityPolicy::fullPhySlot(std::uint64_t t) const
{
    switch (mode) {
      case FidelityMode::Full:
        return true;
      case FidelityMode::Analytic:
        return false;
      case FidelityMode::Auto:
        break;
    }
    if (t < warmupSlots)
        return true;
    if (refreshPeriod == 0 || refreshSlots == 0)
        return false;
    return (t - warmupSlots) % refreshPeriod < refreshSlots;
}

AnalyticLink::AnalyticLink(const softphy::CalibrationTable *table,
                           std::uint64_t draw_stream)
    : table_(table), draws_(draw_stream)
{
    wilis_assert(table_ && table_->valid(),
                 "analytic link needs a calibration table");
}

LinkFrameResult
AnalyticLink::drawAt(phy::RateIndex rate, std::uint64_t t,
                     double snr_eff_db) const
{
    const double per = table_->per(rate, snr_eff_db);
    LinkFrameResult res;
    // Keyed by the slot index alone: a retransmission in a later
    // slot draws fresh slot randomness, exactly like the full PHY's
    // per-slot noise streams.
    res.ok = draws_.doubleAt(t) >= per;
    res.pber = table_->pberFeedback(rate, snr_eff_db, res.ok);
    res.fullPhy = false;
    return res;
}

} // namespace sim
} // namespace wilis
