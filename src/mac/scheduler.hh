/**
 * @file
 * Per-cell slot scheduler of the multi-cell network simulator: the
 * MAC-level arbitration layer that decides which single user
 * transmits in each cell's slot, instead of every user transmitting
 * every slot ("Modelling MAC-Layer Communications in Wireless
 * Systems" motivates treating this arbitration as a first-class
 * modeled layer).
 *
 * Two disciplines:
 *  - round_robin        -- cycle through the cell's users, skipping
 *    ones with nothing to send; the fairness baseline.
 *  - proportional_fair  -- grant argmax of instantaneous rate over
 *    exponentially averaged served throughput (the classic PF
 *    metric), trading peak throughput against starvation. Users
 *    are ranked by a static upper bound on that metric, then by a
 *    cheap per-slot interval around it, so the exact rate is
 *    evaluated only for users the interval cannot rule out.
 *
 * Both are pure functions of (cell state, per-slot inputs), with
 * deterministic tie-breaks (lowest user index), so scheduling can
 * never depend on worker sharding.
 */

#ifndef WILIS_MAC_SCHEDULER_HH
#define WILIS_MAC_SCHEDULER_HH

#include <cstdint>
#include <vector>

#include "common/names.hh"
#include "common/snapshot.hh"

namespace wilis {
namespace mac {

/** Arbitration discipline of a cell's slot scheduler. */
enum class SchedulerKind {
    /** Cyclic grants over backlogged users. */
    RoundRobin,
    /** Instantaneous rate / average throughput argmax. */
    ProportionalFair,
};

/** Config-file names of SchedulerKind. */
inline constexpr auto kSchedulerKindNames = nameTable<SchedulerKind>(
    "scheduler", {{SchedulerKind::RoundRobin, "round_robin"},
                  {SchedulerKind::ProportionalFair, "proportional_fair"},
                  {SchedulerKind::RoundRobin, "rr"},
                  {SchedulerKind::ProportionalFair, "pf"}});

/**
 * Medium-contention model of a cell (per LL-SimpleWireless's fixed
 * bandwidth sharing): how granting a slot with k contenders charges
 * the cell's airtime.
 */
enum class ContentionMode {
    /** One grant per slot regardless of contenders (ideal TDMA). */
    None,
    /**
     * Fixed 1/k sharing: a grant contested by k eligible users
     * occupies the cell's medium for k slots, so each contender
     * sees 1/k of the bandwidth under sustained contention.
     */
    Fixed,
};

/** Config-file names of ContentionMode. */
inline constexpr auto kContentionModeNames = nameTable<ContentionMode>(
    "contention mode",
    {{ContentionMode::None, "none"}, {ContentionMode::Fixed, "fixed"}});

/** An interval lo <= rate <= hi around a user's exact rate. */
struct RateInterval {
    double lo;
    double hi;
};

/**
 * Non-owning view of a callable R(int) of a local user index,
 * evaluated on demand by CellScheduler::pick(). The callable must
 * outlive the view (pass it straight to pick()).
 */
template <typename R>
class UserFn
{
  public:
    /** No callable. */
    UserFn() = default;

    /** View @p f, any callable taking a local user index. */
    template <typename F>
    UserFn(const F &f)
        : obj_(&f), call_([](const void *o, int u) -> R {
              return (*static_cast<const F *>(o))(u);
          })
    {}

    /** Whether a callable is viewed. */
    explicit operator bool() const { return call_ != nullptr; }

    /** The callable's value for local user @p u. */
    R operator()(int u) const { return call_(obj_, u); }

  private:
    const void *obj_ = nullptr;
    R (*call_)(const void *, int) = nullptr;
};

/**
 * One cell's scheduler state. Users are addressed by their local
 * index within the cell (0..numUsers-1); the caller owns the
 * mapping to global user ids.
 */
class CellScheduler
{
  public:
    /** Scheduler configuration. */
    struct Config {
        /** Arbitration discipline. */
        SchedulerKind kind = SchedulerKind::RoundRobin;
        /**
         * Proportional-fair averaging horizon in slots (the EWMA
         * time constant of the served-throughput estimate).
         */
        double pfHorizonSlots = 64.0;
        /** Medium-contention model the engines apply per grant. */
        ContentionMode contention = ContentionMode::None;
    };

    /** Build a scheduler for a cell of @p num_users users. */
    CellScheduler(const Config &cfg, int num_users);

    /** A user's exact instantaneous rate. */
    using RateFn = mac::UserFn<double>;
    /** An interval around a user's exact instantaneous rate. */
    using IntervalFn = mac::UserFn<RateInterval>;

    /**
     * Pick the user to grant this slot.
     * @param eligible   Per-user flag: has something to send.
     * @param rate_bound Per-user upper bound on the instantaneous
     *                   rate, rate(u) <= rate_bound[u]; only
     *                   consulted by proportional_fair, and only
     *                   at eligible indices.
     * @param rate       Per-user exact instantaneous rate.
     *                   proportional_fair grants argmax rate / avg
     *                   but calls @p rate only for the users that
     *                   survive the bounds below; round_robin
     *                   ignores every rate argument.
     * @param urgent     Optional per-user flag: class-aware
     *                   arbitration. When any eligible user is
     *                   urgent (has queued control traffic), the
     *                   pick is restricted to the eligible-and-
     *                   urgent subset -- control preempts data --
     *                   and the discipline (RR cursor / PF metric)
     *                   operates within that subset. Null or
     *                   all-false leaves the pick unrestricted.
     * @param interval   Optional per-user interval around rate(u),
     *                   lo <= rate(u) <= hi, for the slot.
     *                   proportional_fair visits candidates by
     *                   decreasing rate_bound / avg, takes each
     *                   one's interval until a bound metric falls
     *                   below the best lower metric lo / avg seen,
     *                   then calls @p rate only for the visited
     *                   users whose upper metric hi / avg reaches
     *                   that best. Without it the interval is
     *                   [-inf, rate_bound[u]].
     * @return the granted local user index, or -1 if no user is
     *         eligible. Does not mutate state (it reuses an internal
     *         candidate list, so one scheduler serves one thread at
     *         a time, with no heap allocation once the list has
     *         grown to the cell); call update() with the result to
     *         close the slot.
     */
    int pick(const std::vector<std::uint8_t> &eligible,
             const std::vector<double> &rate_bound, RateFn rate,
             const std::vector<std::uint8_t> *urgent = nullptr,
             IntervalFn interval = {}) const;

    /**
     * Close the slot: advance the round-robin cursor / decay the PF
     * throughput averages.
     * @param granted     pick()'s return value (-1 = idle slot).
     * @param served_bits Bits served to the granted user this slot.
     */
    void update(int granted, double served_bits);

    /** PF average served throughput of @p local_user (bits/slot). */
    double averageRate(int local_user) const;

    /**
     * Admit a user at local index @p pos, shifting higher indices
     * up (the engines keep cell membership sorted by global user
     * id, so @p pos is that order's insertion point -- identical in
     * the SoA engine and the per-user test oracle, which is what
     * keeps scheduler state bit-exact across them). The round-robin
     * cursor moves with the user it pointed at; @p avg_rate seeds
     * the proportional-fair throughput average -- the pre-handover
     * value to migrate EWMA state across cells, or 0 for a fresh
     * session.
     */
    void insertUser(int pos, double avg_rate);

    /**
     * Remove the user at local index @p pos, shifting higher
     * indices down (cursor adjustment mirrors insertUser()).
     */
    void removeUser(int pos);

    /**
     * Serialize the mutable state: the round-robin cursor and the
     * PF throughput averages, in local-index order. The instance
     * must be constructed for the same user count before
     * loadState() (the engines rebuild cell membership from the
     * snapshot first).
     */
    void saveState(SnapshotWriter &w) const;

    /** Restore state written by saveState(). */
    void loadState(SnapshotReader &r);

  private:
    /** A PF candidate: its metric bounds and local index. */
    struct Candidate {
        double bound; // rate_bound / avg
        int user;
        double lo; // interval metrics: [-inf, bound] until visited
        double hi;
    };

    Config cfg_;
    int num_users_;
    int cursor_ = 0;          // round robin: last granted + 1
    std::vector<double> avg_; // PF served-throughput EWMA
    // pick()'s candidate list, kept to reuse its capacity.
    mutable std::vector<Candidate> cand_;
};

} // namespace mac
} // namespace wilis

#endif // WILIS_MAC_SCHEDULER_HH
