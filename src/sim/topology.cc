#include "sim/topology.hh"

#include <cmath>
#include <numbers>

#include "common/logging.hh"
#include "common/random.hh"

namespace wilis {
namespace sim {

Topology::Topology(const TopologySpec &spec, int num_users,
                   std::uint64_t seed)
    : spec_(spec), seed_(seed),
      pathloss_(spec.pathloss,
                CounterRng(seed).at(0x70B0ull)) // shadowing stream
{
    wilis_assert(spec_.rows >= 1 && spec_.cols >= 1,
                 "topology grid %dx%d needs >= 1 cell", spec_.rows,
                 spec_.cols);
    wilis_assert(num_users >= 1, "topology needs >= 1 user, got %d",
                 num_users);
    wilis_assert(spec_.cellSpacingM > 0.0,
                 "cell spacing %g m <= 0 (all base stations would "
                 "coincide)",
                 spec_.cellSpacingM);
    wilis_assert(spec_.cellRadiusM > 0.0,
                 "cell radius %g m <= 0", spec_.cellRadiusM);
    wilis_assert(spec_.minDistanceM >= 0.0 &&
                     spec_.minDistanceM < spec_.cellRadiusM,
                 "min distance %g m outside [0, radius %g m)",
                 spec_.minDistanceM, spec_.cellRadiusM);

    // The gain matrix is the deployment's one users x cells array:
    // past these caps (2 GiB of gains, or a million cells) the spec
    // dies naming its keys rather than on std::bad_alloc.
    const std::uint64_t rows = static_cast<std::uint64_t>(spec_.rows);
    const std::uint64_t cols = static_cast<std::uint64_t>(spec_.cols);
    const std::uint64_t entries =
        rows * cols * static_cast<std::uint64_t>(num_users);
    wilis_fatal_if(rows * cols > kMaxCells || entries > kMaxGainEntries,
                   "users=%d on cells=%dx%d out of range: the users x "
                   "cells gain matrix would hold %llu entries (at most "
                   "%llu, with at most %llu cells)",
                   num_users, spec_.rows, spec_.cols,
                   static_cast<unsigned long long>(entries),
                   static_cast<unsigned long long>(kMaxGainEntries),
                   static_cast<unsigned long long>(kMaxCells));

    const int cells = numCells();
    users_.resize(static_cast<size_t>(num_users));
    cell_users_.resize(static_cast<size_t>(cells));
    gains_.resize(static_cast<size_t>(num_users) *
                  static_cast<size_t>(cells));

    const CounterRng root(seed_);
    for (int u = 0; u < num_users; ++u) {
        User &usr = users_[static_cast<size_t>(u)];
        usr.cell = u % cells;
        cell_users_[static_cast<size_t>(usr.cell)].push_back(u);

        // Uniform drop over the serving annulus [minDistance,
        // radius): r = sqrt(lerp(min^2, R^2, u1)) gives uniform
        // area density, theta uniform. Both draws come from the
        // user's own counter stream (chained forks -- XOR-ing the
        // user id into the purpose constant would alias against
        // other purpose families at large user counts), so
        // placement never depends on construction order.
        const CounterRng place =
            root.fork(0x9D0Cull)
                .fork(static_cast<std::uint64_t>(u));
        const double lo2 = spec_.minDistanceM * spec_.minDistanceM;
        const double hi2 = spec_.cellRadiusM * spec_.cellRadiusM;
        const double r =
            std::sqrt(lo2 + (hi2 - lo2) * place.doubleAt(0));
        const double theta =
            2.0 * std::numbers::pi * place.doubleAt(1);
        const Position center = cellCenter(usr.cell);
        usr.pos.x = center.x + r * std::cos(theta);
        usr.pos.y = center.y + r * std::sin(theta);
        usr.servingDistanceM = r;

        for (int c = 0; c < cells; ++c) {
            gains_[static_cast<size_t>(u) *
                       static_cast<size_t>(cells) +
                   static_cast<size_t>(c)] =
                linkGainLinAt(usr.pos, u, c);
        }
    }
}

int
Topology::at(int u) const
{
    wilis_assert(u >= 0 && u < numUsers(), "user %d out of %d", u,
                 numUsers());
    return u;
}

Position
Topology::cellCenter(int c) const
{
    wilis_assert(c >= 0 && c < numCells(), "cell %d out of %d", c,
                 numCells());
    return Position{(c % spec_.cols) * spec_.cellSpacingM,
                    (c / spec_.cols) * spec_.cellSpacingM};
}

const std::vector<int> &
Topology::cellUsers(int c) const
{
    wilis_assert(c >= 0 && c < numCells(), "cell %d out of %d", c,
                 numCells());
    return cell_users_[static_cast<size_t>(c)];
}

double
Topology::linkGainLinAt(const Position &pos, int u, int c) const
{
    const Position bs = cellCenter(c);
    const double dx = pos.x - bs.x;
    const double dy = pos.y - bs.y;
    const double d = std::sqrt(dx * dx + dy * dy);
    return std::pow(10.0, pathloss_.linkSnrDb(d, u, c) / 10.0);
}

double
Topology::linkSnrDb(int u, int c) const
{
    wilis_assert(c >= 0 && c < numCells(), "cell %d out of %d", c,
                 numCells());
    return 10.0 * std::log10(linkGainLin(u, c));
}

double
Topology::staticSinrDb(int u) const
{
    const int serv = servingCell(u);
    double interference = 0.0;
    for (int c = 0; c < numCells(); ++c) {
        if (c != serv)
            interference += linkGainLin(u, c);
    }
    const double sinr =
        linkGainLin(u, serv) / (1.0 + interference);
    return 10.0 * std::log10(sinr);
}

} // namespace sim
} // namespace wilis
