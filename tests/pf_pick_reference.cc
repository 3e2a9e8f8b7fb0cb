#include "pf_pick_reference.hh"

namespace wilis {
namespace mac {

int
pfPickReference(const CellScheduler &sched,
                const std::vector<std::uint8_t> &eligible,
                const std::vector<double> &inst_rate,
                const std::vector<std::uint8_t> *urgent)
{
    const int n = static_cast<int>(eligible.size());
    bool any_urgent = false;
    for (int u = 0; urgent && u < n; ++u) {
        if (eligible[static_cast<size_t>(u)] &&
            (*urgent)[static_cast<size_t>(u)])
            any_urgent = true;
    }
    int best = -1;
    double best_metric = 0.0;
    for (int u = 0; u < n; ++u) {
        if (!eligible[static_cast<size_t>(u)])
            continue;
        if (any_urgent && !(*urgent)[static_cast<size_t>(u)])
            continue;
        const double avg = sched.averageRate(u) > 1e-12
                               ? sched.averageRate(u)
                               : 1e-12;
        const double metric = inst_rate[static_cast<size_t>(u)] / avg;
        if (best < 0 || metric > best_metric) {
            best = u;
            best_metric = metric;
        }
    }
    return best;
}

} // namespace mac
} // namespace wilis
