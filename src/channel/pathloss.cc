#include "channel/pathloss.hh"

#include <cmath>

#include "common/logging.hh"
#include "common/random.hh"

namespace wilis {
namespace channel {

PathlossModel::PathlossModel(const PathlossSpec &spec,
                             std::uint64_t seed)
    : spec_(spec), seed_(seed)
{
    wilis_assert(spec_.refDistanceM > 0.0,
                 "pathloss reference distance %g m <= 0",
                 spec_.refDistanceM);
    wilis_assert(spec_.exponent >= 0.0,
                 "negative pathloss exponent %g", spec_.exponent);
    wilis_assert(spec_.shadowSigmaDb >= 0.0,
                 "negative shadowing sigma %g dB",
                 spec_.shadowSigmaDb);
}

double
PathlossModel::pathlossDb(double distance_m) const
{
    if (distance_m <= spec_.refDistanceM)
        return 0.0;
    return 10.0 * spec_.exponent *
           std::log10(distance_m / spec_.refDistanceM);
}

double
PathlossModel::shadowingDb(int user, int cell) const
{
    if (spec_.shadowSigmaDb <= 0.0)
        return 0.0;
    // One Gaussian per (user, cell) link, keyed -- not drawn in
    // sequence -- so the link-budget matrix can be filled in any
    // order (or in parallel) and stay bit-identical. Chained
    // forks keep the per-user streams alias-free at any user
    // count.
    const CounterRng rng =
        CounterRng(seed_).fork(0x5AD0ull).fork(
            static_cast<std::uint64_t>(user));
    double g0 = 0.0;
    double g1 = 0.0;
    GaussianSource::pairAt(rng, static_cast<std::uint64_t>(cell),
                           g0, g1);
    return g0 * spec_.shadowSigmaDb;
}

double
PathlossModel::linkSnrDb(double distance_m, int user, int cell) const
{
    return linkSnrDbAt(distance_m, shadowingDb(user, cell));
}

} // namespace channel
} // namespace wilis
