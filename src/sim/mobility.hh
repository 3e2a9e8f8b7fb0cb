/**
 * @file
 * Deterministic user mobility, RSRP-style handover and session
 * churn for the multi-cell network simulator.
 *
 * Three trajectory models move users through the deployment:
 *  - "line"     -- constant speed along a random heading, reflected
 *    off the deployment bounding box (an infinite billiard path).
 *  - "orbit"    -- a circular lap around a point near the user's
 *    drop position, radius drawn per user.
 *  - "waypoint" -- the classic random-waypoint walk: straight legs
 *    between uniformly drawn waypoints inside the bounding box.
 *
 * Every trajectory is a *pure function of (seed, user, slot)*: the
 * per-user heading/radius/waypoint draws come from a counter stream
 * forked off the master seed, and the position at slot t is
 * computed directly from t -- no integration state -- so positions
 * can be queried out of order, from any thread, and are
 * bit-identical for any worker count (the property every other
 * random stream in this codebase already has).
 *
 * Positions feed a *live link-gain matrix*: every gain-refresh
 * epoch (a slot-count quantum derived from the speed, ~5 m of
 * travel) the pathloss term of every (user, cell) link is
 * re-evaluated at the user's current position while the shadowing
 * term stays the static per-link draw of channel::PathlossModel --
 * the standard decomposition (shadowing decorrelates over tens of
 * meters; modeling it as fixed per link keeps the matrix a pure
 * function of the spec).
 *
 * On the refreshed gains the runtime evaluates A3-style handover --
 * a neighbor must beat the serving cell by a hysteresis margin
 * continuously for a time-to-trigger window before the user is
 * re-associated -- and Poisson session churn: per-user exponential
 * session/gap dwells (mean 1/churn_rate slots) toggle users between
 * active and departed, quantized to epoch boundaries. Both emit an
 * ordered per-epoch event list that the per-user and SoA engines
 * apply identically, which is how the two engines stay bit-exact
 * under mobility.
 */

#ifndef WILIS_SIM_MOBILITY_HH
#define WILIS_SIM_MOBILITY_HH

#include <cstdint>
#include <vector>

#include "common/names.hh"
#include "common/snapshot.hh"
#include "sim/topology.hh"

namespace wilis {
namespace sim {

/** Trajectory model moving users through the deployment. */
enum class MobilityModel {
    /** Users stay at their drop positions (the static default). */
    None,
    /** Constant speed along a random heading, box-reflected. */
    Line,
    /** Circular laps around a point near the drop position. */
    Orbit,
    /** Random-waypoint walk over the deployment bounding box. */
    Waypoint,
};

/** Config-file names of MobilityModel. */
inline constexpr auto kMobilityModelNames = nameTable<MobilityModel>(
    "mobility model",
    {{MobilityModel::None, "none"}, {MobilityModel::Line, "line"},
     {MobilityModel::Orbit, "orbit"}, {MobilityModel::Waypoint, "waypoint"}});

/** Declarative mobility / handover / churn parameters. */
struct MobilitySpec {
    /** Trajectory model (None = static deployment). */
    MobilityModel model = MobilityModel::None;
    /** User speed in meters per second (trajectory models only). */
    double speedMps = 1.4;
    /** Handover hysteresis margin in dB (A3 offset). */
    double handoverHystDb = 3.0;
    /**
     * Handover time-to-trigger in slots: the hysteresis condition
     * must hold continuously this long (measured across gain
     * epochs) before the user is re-associated. 0 fires on the
     * first epoch the condition holds.
     */
    std::uint64_t handoverTttSlots = 16;
    /**
     * Session churn rate: the per-slot hazard of a session toggle,
     * i.e. active sessions and departed gaps both last an
     * exponential dwell of mean 1/churn_rate slots. 0 disables
     * churn (every user stays active for the whole run).
     */
    double churnRate = 0.0;

    /** True when mobility or churn changes the run's dynamics. */
    bool
    enabled() const
    {
        return model != MobilityModel::None || churnRate > 0.0;
    }
};

/**
 * The shared mobility/handover/churn decision engine of one run.
 *
 * Both multi-cell engines construct one runtime per run and drive
 * it single-threaded at every gain-refresh epoch (the worker team
 * barriers around the call): epoch() refreshes the live gain
 * matrix from the trajectory positions, advances the churn chains
 * and the handover time-to-trigger state, and returns the slot's
 * ordered membership events. The engines then apply those events
 * to their own scheduler/queue/ARQ state -- every decision is made
 * once, here, so the two engines cannot diverge.
 *
 * Between epochs the runtime is read-only: gainRow() /
 * servingGainLin() replace the static Topology matrix wherever the
 * engines fold interference or rate estimates.
 *
 * Publication contract: epoch() mutates the gain matrix and every
 * decision chain with no internal locking, so the caller must hold
 * all other workers at a LockstepTeam barrier for the duration of
 * the call; the barrier's release/acquire protocol then publishes
 * the new epoch state to every worker (and the pre-epoch reads back
 * to worker 0). This write-parked / read-shared pattern is
 * barrier-phase ownership -- enforced dynamically by the CI TSan
 * leg, not expressible to the lock-based static analysis (see
 * docs/ARCHITECTURE.md, "Static determinism guarantees").
 */
class MobilityRuntime
{
  public:
    /** One membership event of a gain epoch. */
    struct Event {
        /** What happened to the user. */
        enum class Kind {
            /**
             * Departed user re-entered: fromCell is the
             * pre-departure serving cell, toCell the strongest
             * cell at the current position (RSRP re-association,
             * so the two differ when the user moved while away).
             */
            Join,
            /** Active user departed (fromCell == toCell). */
            Leave,
            /** Serving-cell re-association (fromCell != toCell). */
            Handover,
        };
        /** Event kind. */
        Kind kind = Kind::Join;
        /** Global user id. */
        int user = 0;
        /** Serving cell before the event. */
        int fromCell = 0;
        /** Serving cell after the event. */
        int toCell = 0;
        /**
         * Handover only: true when this bounces straight back to
         * the previous serving cell within the ping-pong window
         * (8 gain epochs).
         */
        bool pingPong = false;
    };

    /**
     * Build the runtime for a realized deployment.
     * @param spec              Mobility / handover / churn knobs.
     * @param topo              The deployment (drop positions seed
     *                          the trajectories; its gain matrix is
     *                          the epoch-0 state of the live one).
     * @param seed              The run's master seed; trajectory and
     *                          churn streams fork from it per user.
     * @param frame_interval_us Slot duration (converts speed in m/s
     *                          into m/slot).
     */
    MobilityRuntime(const MobilitySpec &spec, const Topology &topo,
                    std::uint64_t seed, double frame_interval_us);

    /** The parameters in use. */
    const MobilitySpec &spec() const { return spec_; }

    /**
     * Gain-refresh epoch length in slots: ~5 m of travel at the
     * configured speed, clamped to [1, 1024] (64 for churn-only
     * runs, whose gains never change).
     */
    std::uint64_t epochSlots() const { return epochSlots_; }

    /**
     * Position of user @p u at slot @p t -- a pure function of
     * (seed, user, slot), independent of any runtime state.
     */
    Position positionAt(int u, std::uint64_t t) const;

    /** Current serving cell of user @p u. */
    int servingCell(int u) const
    {
        return serving_[static_cast<size_t>(u)];
    }

    /** True when user @p u's session is currently active. */
    bool userActive(int u) const
    {
        return active_[static_cast<size_t>(u)] != 0;
    }

    /** Serving-link gain of user @p u in linear SNR units. */
    double servingGainLin(int u) const
    {
        return gainRow(u)[serving_[static_cast<size_t>(u)]];
    }

    /**
     * User @p u's row of the *live* users x cells linear gain
     * matrix (refreshed every epoch; the mobile replacement for
     * Topology::gainRow()). The row's address is stable for the
     * runtime's lifetime.
     */
    const double *
    gainRow(int u) const
    {
        return gains_.data() +
               static_cast<size_t>(u) * static_cast<size_t>(cells_);
    }

    /**
     * Advance to slot @p t (a multiple of epochSlots(), strictly
     * increasing across calls): refresh the gain matrix from the
     * slot-@p t positions, advance churn and handover state, and
     * append this epoch's events to @p out in user-id order (at
     * most one event per user per epoch). Must be called from one
     * thread at a time.
     */
    void epoch(std::uint64_t t, std::vector<Event> &out);

    /** Completed handovers of user @p u. */
    std::uint64_t handovers(int u) const
    {
        return handovers_[static_cast<size_t>(u)];
    }

    /** Ping-pong handovers of user @p u (see Event::pingPong). */
    std::uint64_t pingPongs(int u) const
    {
        return pingPongs_[static_cast<size_t>(u)];
    }

    /** Churn re-entries of user @p u. */
    std::uint64_t joins(int u) const
    {
        return joins_[static_cast<size_t>(u)];
    }

    /** Churn departures of user @p u. */
    std::uint64_t leaves(int u) const
    {
        return leaves_[static_cast<size_t>(u)];
    }

    /**
     * Slot of user @p u's first handover, or UINT64_MAX if none
     * happened yet (the split point of the before/after-handover
     * throughput statistics).
     */
    std::uint64_t firstHandoverSlot(int u) const
    {
        return firstHoSlot_[static_cast<size_t>(u)];
    }

    /**
     * Serialize the mutable state: the live gain matrix, serving /
     * active membership, handover and churn decision chains, event
     * counters and the last-epoch guard. The static shadowing draws
     * are re-derived by the constructor on resume (a pure function
     * of the spec), and trajectories carry no state at all.
     */
    void saveState(SnapshotWriter &w) const;

    /**
     * Restore state written by saveState() (same spec and topo) into
     * a run resuming at slot @p slot; fatal on a cell index, flag,
     * gain or last-epoch slot no run can reach by @p slot.
     */
    void loadState(SnapshotReader &r, std::uint64_t slot);

  private:
    /** Reflect @p p into [lo, hi] by triangle-wave folding. */
    static double fold(double p, double lo, double hi);

    /** Exponential churn dwell @p k of user @p u, in slots. */
    std::uint64_t churnDwell(int u, std::uint64_t k) const;

    /** Re-evaluate user @p u's gain row at its slot-@p t position. */
    void refreshRow(int u, std::uint64_t t);

    /** Best cell of @p row (argmax gain, lowest index on ties). */
    int bestCell(const double *row) const;

    MobilitySpec spec_;
    const Topology &topo_;
    std::uint64_t seed_;
    double slotSec_;
    int users_;
    int cells_;
    std::uint64_t epochSlots_;
    double hystLin_; // 10^(handoverHystDb / 10)
    // Deployment bounding box (cell grid extended by the drop
    // radius): trajectories reflect off / draw waypoints within it.
    double xLo_, xHi_, yLo_, yHi_;

    std::vector<double> gains_; // live [user * cells + cell] matrix
    std::vector<double> shadow_; // static per-link shadowing, dB
    std::vector<int> serving_;
    std::vector<std::uint8_t> active_;

    // Handover time-to-trigger state: the current best-neighbor
    // candidate and the slot its hysteresis condition started
    // holding.
    std::vector<int> hoCand_;
    std::vector<std::uint64_t> hoSince_;
    // Ping-pong detection: the pre-handover serving cell and the
    // slot of the last handover.
    std::vector<int> prevCell_;
    std::vector<std::uint64_t> lastHoSlot_;
    // Churn chains: the next session-toggle slot and dwell index.
    std::vector<std::uint64_t> nextToggle_;
    std::vector<std::uint64_t> toggleIdx_;

    // Last slot epoch() ran at (UINT64_MAX = never): enforces the
    // strictly-increasing call contract, so a scheduling bug that
    // replayed or reordered epochs panics instead of silently
    // re-advancing the churn chains.
    std::uint64_t lastEpochT_ = UINT64_MAX;

    std::vector<std::uint64_t> handovers_;
    std::vector<std::uint64_t> pingPongs_;
    std::vector<std::uint64_t> joins_;
    std::vector<std::uint64_t> leaves_;
    std::vector<std::uint64_t> firstHoSlot_;
};

} // namespace sim
} // namespace wilis

#endif // WILIS_SIM_MOBILITY_HH
