/**
 * @file
 * Optimal-rate oracle for the Figure 7 experiment: "We consider the
 * optimal rate to be the highest rate at which a packet would be
 * successfully received with no errors." The oracle replays the
 * *same* packet index -- and hence, through the counter-based
 * channel, the same noise and fading -- at every candidate rate.
 */

#ifndef WILIS_MAC_ORACLE_HH
#define WILIS_MAC_ORACLE_HH

#include <array>
#include <cstdint>
#include <memory>

#include "sim/testbench.hh"

namespace wilis {
namespace mac {

/**
 * Owns one testbench per rate (all sharing the channel
 * configuration) and answers optimal-rate queries.
 */
class RateOracle
{
  public:
    /**
     * @param base Scenario whose rate field is overridden per
     *             candidate; channel and seeds are shared so replay
     *             sees identical impairments.
     */
    explicit RateOracle(const sim::ScenarioSpec &base);

    /**
     * Highest rate index at which @p packet_index is received with
     * zero payload errors; -1 if no rate succeeds. Runs on the
     * zero-copy frame path (each candidate bench reuses its arena).
     */
    int optimalRate(size_t payload_bits, std::uint64_t packet_index);

    /**
     * Run one packet at an explicit rate on the oracle's own
     * testbench for it: the views die at the next call on that
     * rate's testbench, optimalRate() included.
     */
    sim::FrameResult runFrameAtRate(phy::RateIndex rate,
                                    size_t payload_bits,
                                    std::uint64_t packet_index);

  private:
    std::array<std::unique_ptr<sim::Testbench>, phy::kNumRates>
        benches;
};

/** Selection outcome relative to the oracle (Figure 7 categories). */
enum class RateSelection { Underselect, Accurate, Overselect };

/** Tally of selection outcomes. */
struct SelectionStats {
    /** Packets where the controller chose below the oracle. */
    std::uint64_t under = 0;
    /** Packets where the controller matched the oracle. */
    std::uint64_t accurate = 0;
    /** Packets where the controller chose above the oracle. */
    std::uint64_t over = 0;

    /** Total packets judged. */
    std::uint64_t total() const { return under + accurate + over; }
    /** Underselections as a percentage of total() (0 if empty). */
    double underPct() const;
    /** Accurate selections as a percentage of total(). */
    double accuratePct() const;
    /** Overselections as a percentage of total(). */
    double overPct() const;

    /** Count one classified selection. */
    void
    record(RateSelection s)
    {
        switch (s) {
          case RateSelection::Underselect:
            ++under;
            break;
          case RateSelection::Accurate:
            ++accurate;
            break;
          case RateSelection::Overselect:
            ++over;
            break;
        }
    }
};

/** Classify @p chosen against @p optimal. */
inline RateSelection
classifySelection(int chosen, int optimal)
{
    if (chosen < optimal)
        return RateSelection::Underselect;
    if (chosen > optimal)
        return RateSelection::Overselect;
    return RateSelection::Accurate;
}

} // namespace mac
} // namespace wilis

#endif // WILIS_MAC_ORACLE_HH
