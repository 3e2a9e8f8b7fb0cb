/**
 * @file
 * Cell-grid deployment geometry for the multi-cell network
 * simulator: base stations on a rows x cols grid, users dropped at
 * deterministic 2-D positions around their serving cell, and a
 * precomputed link-budget matrix (pathloss + shadowing, in linear
 * SNR units) from *every* cell to *every* user -- the quantity the
 * per-slot SINR folds over the set of same-slot interfering cells.
 *
 * Everything here is a pure function of (spec, user count, seed):
 * placements draw from per-user counter streams, shadowing from
 * per-link keys, so the whole deployment is bit-identical for any
 * thread count and any evaluation order. The matrix costs
 * O(users x cells) doubles (a 10k-user, 100-cell deployment is
 * 8 MB) and makes the per-slot interference sum a cache-friendly
 * row walk.
 */

#ifndef WILIS_SIM_TOPOLOGY_HH
#define WILIS_SIM_TOPOLOGY_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "channel/pathloss.hh"

namespace wilis {
namespace sim {

/** Declarative description of a cell-grid deployment. */
struct TopologySpec {
    /** Cell grid rows (1x1 = the single-cell legacy timeline). */
    int rows = 1;
    /** Cell grid columns. */
    int cols = 1;
    /** Distance between adjacent cell centers in meters. */
    double cellSpacingM = 500.0;
    /** User drop radius around the serving cell center in meters. */
    double cellRadiusM = 250.0;
    /** Minimum user distance from the serving cell in meters. */
    double minDistanceM = 20.0;
    /** Large-scale propagation model. */
    channel::PathlossSpec pathloss;

    /** Number of cells in the grid. */
    int numCells() const { return rows * cols; }
    /** True if this spec describes a multi-cell deployment. */
    bool multicell() const { return numCells() > 1; }
};

/** 2-D position in meters. */
struct Position {
    /** East coordinate in meters. */
    double x = 0.0;
    /** North coordinate in meters. */
    double y = 0.0;
};

/**
 * One realized deployment: cell centers, user placements and the
 * users x cells link-budget matrix. Users are assigned to cells
 * round-robin by index (user u serves from cell u % numCells), so
 * every cell's population differs by at most one user.
 */
class Topology
{
  public:
    /**
     * Realize a deployment.
     * @param spec      Grid geometry + propagation model.
     * @param num_users Users to drop (>= 1).
     * @param seed      Master seed; placement and shadowing streams
     *                  are forked from it per user / per link.
     */
    Topology(const TopologySpec &spec, int num_users,
             std::uint64_t seed);

    /** The geometry in use. */
    const TopologySpec &spec() const { return spec_; }

    /**
     * The realized propagation model (the position-dependent link
     * query: pathloss at any distance plus the static per-link
     * shadowing draw). sim::MobilityRuntime re-evaluates moving
     * users' link budgets through it.
     */
    const channel::PathlossModel &pathloss() const
    {
        return pathloss_;
    }

    /** Number of cells. */
    int numCells() const { return spec_.numCells(); }
    /** Number of users. */
    int numUsers() const { return static_cast<int>(users_.size()); }

    /** Center of cell @p c in meters. */
    Position cellCenter(int c) const;

    /** Position of user @p u in meters. */
    Position userPosition(int u) const { return users_[at(u)].pos; }

    /** Serving cell of user @p u. */
    int servingCell(int u) const { return users_[at(u)].cell; }

    /** Distance from user @p u to its serving cell in meters. */
    double servingDistanceM(int u) const
    {
        return users_[at(u)].servingDistanceM;
    }

    /** Users served by cell @p c, in increasing user order. */
    const std::vector<int> &cellUsers(int c) const;

    /**
     * Mean link SNR (dB) from cell @p c's transmitter at user
     * @p u -- pathloss + shadowing, no fast fading.
     */
    double linkSnrDb(int u, int c) const;

    /** linkSnrDb() of the serving link. */
    double servingSnrDb(int u) const
    {
        return linkSnrDb(u, servingCell(u));
    }

    /**
     * Link budget of user @p u's stream from cell @p c evaluated at
     * an arbitrary position, in linear SNR units: the
     * position-dependent form of the matrix query (pathloss at the
     * distance from @p pos to the cell, plus user @p u's static
     * shadowing draw toward @p c). linkGainLinAt(userPosition(u),
     * u, c) reproduces linkGainLin(u, c) bitwise; the mobility
     * layer evaluates it along trajectories.
     */
    double linkGainLinAt(const Position &pos, int u, int c) const;

    /** The same link budget in linear SNR units (10^(dB/10)). */
    double linkGainLin(int u, int c) const
    {
        return gains_[static_cast<size_t>(at(u)) *
                          static_cast<size_t>(numCells()) +
                      static_cast<size_t>(c)];
    }

    /**
     * User @p u's full row of the users x cells linear gain matrix
     * (numCells() entries), the input of the batched SINR kernel.
     */
    const double *
    gainRow(int u) const
    {
        return gains_.data() + static_cast<size_t>(at(u)) *
                                   static_cast<size_t>(numCells());
    }

    /**
     * Geometry SINR of user @p u in dB with every cell transmitting
     * (no fading, unit-mean interference): the classic wrap-free
     * grid SINR map, exposed for tests and the example's narrative
     * columns.
     */
    double staticSinrDb(int u) const;

  private:
    struct User {
        Position pos;
        int cell = 0;
        double servingDistanceM = 0.0;
    };

    int at(int u) const;

    TopologySpec spec_;
    std::uint64_t seed_;
    channel::PathlossModel pathloss_;
    std::vector<User> users_;
    std::vector<std::vector<int>> cell_users_;
    std::vector<double> gains_; // [user * numCells + cell], linear
};

} // namespace sim
} // namespace wilis

#endif // WILIS_SIM_TOPOLOGY_HH
