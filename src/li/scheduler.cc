#include "li/scheduler.hh"

#include <algorithm>
#include <limits>

namespace wilis {
namespace li {

Scheduler::Scheduler() = default;

ClockDomain *
Scheduler::createDomain(const std::string &name, double freq_mhz)
{
    for (const auto &ds : domains) {
        wilis_assert(ds.domain->name() != name,
                     "duplicate clock domain '%s'", name.c_str());
    }
    DomainState ds;
    ds.domain = std::make_unique<ClockDomain>(name, freq_mhz);
    ClockDomain *raw = ds.domain.get();
    domains.push_back(std::move(ds));
    return raw;
}

Scheduler::DomainState *
Scheduler::findState(ClockDomain *domain)
{
    for (auto &ds : domains) {
        if (ds.domain.get() == domain)
            return &ds;
    }
    wilis_panic("clock domain '%s' not owned by this scheduler",
                domain ? domain->name().c_str() : "<null>");
}

void
Scheduler::add(Module *m, ClockDomain *domain)
{
    DomainState *ds = findState(domain);
    m->setDomain(domain);
    ds->modules.push_back(m);
}

Module *
Scheduler::adopt(std::unique_ptr<Module> m, ClockDomain *domain)
{
    Module *raw = m.get();
    owned_modules.push_back(std::move(m));
    add(raw, domain);
    return raw;
}

bool
Scheduler::step()
{
    wilis_assert(!domains.empty(), "scheduler has no clock domains");

    SimTime earliest = std::numeric_limits<SimTime>::max();
    for (const auto &ds : domains)
        earliest = std::min(earliest, ds.domain->nextEdge());

    now_ps = earliest;

    bool any_progress = false;
    for (auto &ds : domains) {
        if (ds.domain->nextEdge() != earliest)
            continue;
        ds.domain->advance();
        bool domain_progress = false;
        for (Module *m : ds.modules)
            domain_progress |= m->clockedTick();
        if (domain_progress) {
            ds.consecutive_idle = 0;
            any_progress = true;
        } else {
            ++ds.consecutive_idle;
        }
    }
    return any_progress;
}

std::uint64_t
Scheduler::runUntilIdle(int idle_cycles, std::uint64_t max_edges)
{
    // Idle bookkeeping restarts per run: stale counters from a
    // previous quiescent run must not satisfy the exit condition
    // before newly injected work gets a chance to tick.
    for (auto &ds : domains)
        ds.consecutive_idle = 0;

    std::uint64_t edges = 0;
    while (edges < max_edges) {
        step();
        ++edges;
        bool all_idle = true;
        for (const auto &ds : domains) {
            if (ds.consecutive_idle <
                static_cast<std::uint64_t>(idle_cycles)) {
                all_idle = false;
                break;
            }
        }
        if (all_idle)
            break;
    }
    return edges;
}

} // namespace li
} // namespace wilis
