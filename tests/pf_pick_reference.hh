/**
 * @file
 * The exhaustive proportional-fair pick oracle: the loop
 * mac::CellScheduler::pick ran before it learned to skip users whose
 * rate bound cannot win. It evaluates every candidate's metric, so
 * the pruned pick must return its grant on every input. Test-only
 * code (the test_oracles static library the test executables link).
 */

#ifndef WILIS_TESTS_PF_PICK_REFERENCE_HH
#define WILIS_TESTS_PF_PICK_REFERENCE_HH

#include <cstdint>
#include <vector>

#include "mac/scheduler.hh"

namespace wilis {
namespace mac {

/**
 * argmax of inst_rate[u] / max(avg, 1e-12) over the eligible users
 * of the proportional-fair scheduler @p sched (restricted to the
 * urgent ones when any eligible user is urgent), lowest index on
 * ties; -1 when no user is eligible.
 */
int pfPickReference(const CellScheduler &sched,
                    const std::vector<std::uint8_t> &eligible,
                    const std::vector<double> &inst_rate,
                    const std::vector<std::uint8_t> *urgent);

} // namespace mac
} // namespace wilis

#endif // WILIS_TESTS_PF_PICK_REFERENCE_HH
