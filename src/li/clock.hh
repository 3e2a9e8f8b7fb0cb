/**
 * @file
 * Clock domains for the multi-clock LI framework (WiLIS section 2,
 * "Automatic Multi-Clock Support").
 *
 * Each module belongs to exactly one ClockDomain; the Scheduler ticks
 * domains at rates proportional to their frequencies. Simulated time
 * is tracked in picoseconds so that e.g. 35 MHz and 60 MHz domains
 * interleave exactly.
 */

#ifndef WILIS_LI_CLOCK_HH
#define WILIS_LI_CLOCK_HH

#include <cstdint>
#include <string>

#include "common/logging.hh"

namespace wilis {
namespace li {

/** Simulated time in picoseconds. */
using SimTime = std::uint64_t;

/** A named clock with a fixed frequency. */
class ClockDomain
{
  public:
    /**
     * @param name_     Domain name for diagnostics.
     * @param freq_mhz  Frequency in MHz (e.g. 35.0, 60.0).
     */
    ClockDomain(std::string name_, double freq_mhz)
        : name_str(std::move(name_))
    {
        wilis_assert(freq_mhz > 0.0, "clock '%s' needs positive freq",
                     name_str.c_str());
        period_ps = static_cast<SimTime>(1e6 / freq_mhz + 0.5);
        wilis_assert(period_ps > 0, "clock '%s' period underflow",
                     name_str.c_str());
    }

    /** Domain name. */
    const std::string &name() const { return name_str; }

    /** Clock period in picoseconds. */
    SimTime periodPs() const { return period_ps; }

    /** Cycles elapsed in this domain. */
    std::uint64_t cycles() const { return cycle_count; }

    /** Advance the domain by one cycle (scheduler only). */
    void advance() { ++cycle_count; }

    /** Simulated time of the next edge given current cycle count. */
    SimTime nextEdge() const { return (cycle_count + 1) * period_ps; }

  private:
    std::string name_str;
    SimTime period_ps;
    std::uint64_t cycle_count = 0;
};

} // namespace li
} // namespace wilis

#endif // WILIS_LI_CLOCK_HH
