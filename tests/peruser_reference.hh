/**
 * @file
 * Test-side entry to the per-user multi-cell engine, the bit-exact
 * reference the SoA engine behind NetworkSim::run() is compared
 * against. No spec key or NetworkSim option selects it.
 */

#ifndef WILIS_TESTS_PERUSER_REFERENCE_HH
#define WILIS_TESTS_PERUSER_REFERENCE_HH

#include <cstdint>
#include <memory>

#include "common/logging.hh"
#include "sim/multicell_sim.hh"
#include "sim/network_sim.hh"
#include "softphy/softphy.hh"

namespace wilis {
namespace sim {

/**
 * Run @p sim's multi-cell deployment on the per-user engine, with
 * the topology, calibration and rate estimator NetworkSim::run() uses.
 */
inline NetworkResult
runPerUserReference(const NetworkSim &sim, std::uint64_t slots,
                    int threads)
{
    wilis_assert(sim.topology(), "per-user reference needs a grid");
    // Non-owning: @p sim keeps the table alive for the whole run.
    const std::shared_ptr<const softphy::CalibrationTable> calib(
        std::shared_ptr<const void>(), sim.calibration());
    return runMulticellPerUser(
        sim.spec(), *sim.topology(),
        softphy::analyticRateEstimator(sim.spec().link.rx), calib,
        slots, threads);
}

} // namespace sim
} // namespace wilis

#endif // WILIS_TESTS_PERUSER_REFERENCE_HH
