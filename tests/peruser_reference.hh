/**
 * @file
 * The per-user multi-cell oracle: a plain, single-threaded object
 * walk of the lockstep slot model that the SoA engine behind
 * NetworkSim::run() must reproduce bit-for-bit. Test-only code (the
 * peruser_reference static library the test executables link); no
 * spec key, NetworkSim option or library entry point reaches it.
 */

#ifndef WILIS_TESTS_PERUSER_REFERENCE_HH
#define WILIS_TESTS_PERUSER_REFERENCE_HH

#include <cstdint>

#include "sim/network_sim.hh"

namespace wilis {
namespace sim {

/**
 * Run @p sim's multi-cell deployment for @p slots slots on the
 * per-user oracle, with the topology, calibration and rate
 * estimator NetworkSim::run() uses. Each slot runs the mobility
 * epoch, then phase 1 over every cell, then phase 2 over every
 * cell, on the calling thread. The spec must not set any
 * checkpoint key: the oracle neither saves nor resumes.
 */
NetworkResult runPerUserReference(const NetworkSim &sim,
                                  std::uint64_t slots);

} // namespace sim
} // namespace wilis

#endif // WILIS_TESTS_PERUSER_REFERENCE_HH
