#include "mac/scheduler.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/kernels.hh"
#include "common/logging.hh"

namespace wilis {
namespace mac {

CellScheduler::CellScheduler(const Config &cfg, int num_users)
    : cfg_(cfg), num_users_(num_users)
{
    wilis_assert(num_users_ >= 0, "negative user count %d",
                 num_users_);
    wilis_assert(cfg_.pfHorizonSlots >= 1.0,
                 "PF horizon %g slots < 1", cfg_.pfHorizonSlots);
    if (cfg_.kind == SchedulerKind::ProportionalFair)
        avg_.assign(static_cast<size_t>(num_users_), 0.0);
}

int
CellScheduler::pick(const std::vector<std::uint8_t> &eligible,
                    const std::vector<double> &rate_bound, RateFn rate,
                    const std::vector<std::uint8_t> *urgent,
                    IntervalFn interval) const
{
    wilis_assert(static_cast<int>(eligible.size()) == num_users_,
                 "eligibility vector size %zu != %d users",
                 eligible.size(), num_users_);
    if (num_users_ == 0)
        return -1;
    // Class-aware preemption: when any eligible user is urgent,
    // restrict the discipline to the eligible-and-urgent subset.
    bool any_urgent = false;
    if (urgent) {
        wilis_assert(static_cast<int>(urgent->size()) == num_users_,
                     "urgency vector size %zu != %d users",
                     urgent->size(), num_users_);
        for (int u = 0; u < num_users_; ++u) {
            if (eligible[static_cast<size_t>(u)] &&
                (*urgent)[static_cast<size_t>(u)]) {
                any_urgent = true;
                break;
            }
        }
    }
    auto candidate = [&](int u) {
        return eligible[static_cast<size_t>(u)] &&
               (!any_urgent || (*urgent)[static_cast<size_t>(u)]);
    };
    if (cfg_.kind == SchedulerKind::RoundRobin) {
        for (int i = 0; i < num_users_; ++i) {
            const int u = (cursor_ + i) % num_users_;
            if (candidate(u))
                return u;
        }
        return -1;
    }
    // Proportional fair: argmax rate / avg with a floor on the
    // average so a never-served user wins its first contention.
    // Ties break to the lowest index -- scheduling stays a pure
    // function of the inputs. Division by the same avg rounds
    // monotonically, so lo / avg <= rate / avg <= hi / avg and
    // rate / avg <= bound / avg hold for the rounded metrics too.
    wilis_assert(static_cast<int>(rate_bound.size()) == num_users_,
                 "rate bound vector size %zu != %d users",
                 rate_bound.size(), num_users_);
    auto floored = [&](int u) {
        return std::max(avg_[static_cast<size_t>(u)], 1e-12);
    };
    constexpr double kNone = -std::numeric_limits<double>::infinity();
    cand_.clear();
    for (int u = 0; u < num_users_; ++u) {
        if (!candidate(u))
            continue;
        const double b = rate_bound[static_cast<size_t>(u)] / floored(u);
        cand_.push_back({b, u, kNone, b});
    }
    std::sort(cand_.begin(), cand_.end(),
              [](const Candidate &a, const Candidate &b) {
                  return a.bound > b.bound ||
                         (a.bound == b.bound && a.user < b.user);
              });
    // Pass 1: intervals in bound order, keeping best_lo, the largest
    // lower metric seen; stop at the first bound below it. best_lo
    // is at most the exact metric of the user that set it, so a
    // user whose upper metric is below best_lo can neither win nor
    // tie -- nor can any user past the stop.
    double best_lo = kNone;
    size_t visited = 0;
    for (; visited < cand_.size(); ++visited) {
        Candidate &c = cand_[visited];
        if (c.bound < best_lo)
            break;
        if (interval) {
            const RateInterval r = interval(c.user);
            c.lo = r.lo / floored(c.user);
            c.hi = r.hi / floored(c.user);
        }
        best_lo = std::max(best_lo, c.lo);
    }
    // Pass 2: the exact metric of each visited user whose upper
    // metric reaches best_lo (the survivors), raising best_lo as
    // exact metrics come in.
    int best = -1;
    double best_metric = 0.0;
    for (size_t k = 0; k < visited; ++k) {
        const Candidate &c = cand_[k];
        if (c.hi < best_lo)
            continue;
        const double metric = rate(c.user) / floored(c.user);
        best_lo = std::max(best_lo, metric);
        if (best < 0 || metric > best_metric ||
            (metric == best_metric && c.user < best)) {
            best = c.user;
            best_metric = metric;
        }
    }
    return best;
}

void
CellScheduler::update(int granted, double served_bits)
{
    if (cfg_.kind == SchedulerKind::RoundRobin) {
        if (granted >= 0)
            cursor_ = (granted + 1) % num_users_;
        return;
    }
    // The EWMA decay runs as the pfDecay kernel: element-parallel
    // (1 - a) * avg + a * served with served nonzero only for the
    // granted user, bit-identical to the scalar recurrence on every
    // backend.
    const double a = 1.0 / cfg_.pfHorizonSlots;
    kernels::ops().pfDecay(avg_.data(), avg_.size(), a, granted,
                           served_bits);
}

void
CellScheduler::insertUser(int pos, double avg_rate)
{
    wilis_assert(pos >= 0 && pos <= num_users_,
                 "insert position %d outside [0, %d]", pos,
                 num_users_);
    ++num_users_;
    // The cursor names a local index; an insertion below it shifts
    // the user it pointed at up by one. Inserting *at* the cursor
    // leaves it alone: the newcomer inherits the next turn, a pure
    // function of (pos, cursor) in the engine and the test oracle.
    if (pos < cursor_)
        ++cursor_;
    if (cfg_.kind == SchedulerKind::ProportionalFair)
        avg_.insert(avg_.begin() + pos, avg_rate);
}

void
CellScheduler::removeUser(int pos)
{
    wilis_assert(pos >= 0 && pos < num_users_,
                 "remove position %d outside [0, %d)", pos,
                 num_users_);
    --num_users_;
    if (pos < cursor_)
        --cursor_;
    if (cursor_ >= num_users_)
        cursor_ = 0;
    if (cfg_.kind == SchedulerKind::ProportionalFair)
        avg_.erase(avg_.begin() + pos);
}

void
CellScheduler::saveState(SnapshotWriter &w) const
{
    w.marker(0x44454853); // "SHED"
    w.i64(cursor_);
    w.u64(avg_.size());
    for (double a : avg_)
        w.f64(a);
}

void
CellScheduler::loadState(SnapshotReader &r)
{
    r.marker(0x44454853);
    cursor_ = static_cast<int>(r.i64In(
        0, std::max(num_users_, 1), "round-robin cursor"));
    const std::uint64_t n = r.u64();
    if (n != avg_.size())
        r.fail(strprintf("%llu PF averages for a %zu-user cell",
                         static_cast<unsigned long long>(n),
                         avg_.size()));
    for (double &a : avg_) {
        a = r.f64();
        if (!(std::isfinite(a) && a >= 0.0))
            r.fail(strprintf("PF average %g", a));
    }
}

double
CellScheduler::averageRate(int local_user) const
{
    wilis_assert(cfg_.kind == SchedulerKind::ProportionalFair,
                 "averageRate() is a proportional-fair statistic");
    return avg_[static_cast<size_t>(local_user)];
}

} // namespace mac
} // namespace wilis
