/**
 * @file
 * Cyclic prefix insertion and removal: the last kCpLen time-domain
 * samples of each OFDM symbol are prepended as a guard interval.
 */

#ifndef WILIS_PHY_CYCLIC_PREFIX_HH
#define WILIS_PHY_CYCLIC_PREFIX_HH

#include "common/types.hh"
#include "phy/ofdm_symbol.hh"

namespace wilis {
namespace phy {

/** Write CP + the 64-sample @p body (80 samples) into @p out. */
void addCyclicPrefix(SampleView body, SampleSpan out);

/** Write the 64-sample body of the 80-sample @p symbol into @p out. */
void removeCyclicPrefix(SampleView symbol, SampleSpan out);

} // namespace phy
} // namespace wilis

#endif // WILIS_PHY_CYCLIC_PREFIX_HH
