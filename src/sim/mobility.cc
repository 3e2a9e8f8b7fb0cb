#include "sim/mobility.hh"

#include <cmath>
#include <numbers>

#include "common/logging.hh"
#include "common/random.hh"

namespace wilis {
namespace sim {

namespace {

/**
 * Purpose constants of the mobility streams, chained-forked per
 * user off the master seed (XOR-ing the user id into the constant
 * would alias against the other purpose families at large user
 * counts, same reasoning as the placement and traffic streams).
 */
constexpr std::uint64_t kTrajStream = 0x6D0Bull;
constexpr std::uint64_t kChurnStream = 0xC40Dull;

/** Ping-pong window: a bounce back within this many epochs. */
constexpr std::uint64_t kPingPongEpochs = 8;

/** Meters of travel per gain-refresh epoch. */
constexpr double kEpochTravelM = 5.0;

} // namespace

MobilityRuntime::MobilityRuntime(const MobilitySpec &spec,
                                 const Topology &topo,
                                 std::uint64_t seed,
                                 double frame_interval_us)
    : spec_(spec), topo_(topo), seed_(seed),
      slotSec_(frame_interval_us * 1e-6), users_(topo.numUsers()),
      cells_(topo.numCells()),
      hystLin_(std::pow(10.0, spec.handoverHystDb / 10.0))
{
    wilis_assert(spec_.enabled(),
                 "MobilityRuntime on a static spec (model none, "
                 "churn 0)");
    wilis_assert(spec_.model == MobilityModel::None ||
                     spec_.speedMps > 0.0,
                 "mobility model '%s' needs speed_mps > 0, got %g",
                 kMobilityModelNames.name(spec_.model).data(),
                 spec_.speedMps);
    wilis_assert(spec_.handoverHystDb >= 0.0,
                 "negative handover hysteresis %g dB",
                 spec_.handoverHystDb);
    wilis_assert(spec_.churnRate >= 0.0 && spec_.churnRate <= 1.0,
                 "churn rate %g outside [0, 1]", spec_.churnRate);
    wilis_assert(slotSec_ > 0.0, "slot duration %g s <= 0",
                 slotSec_);

    // One epoch is ~5 m of travel: short enough that the pathloss
    // along a leg is piecewise-accurate, long enough that the
    // refresh stays a vanishing fraction of slot work. Churn-only
    // runs never move, so any fixed quantum works; 64 keeps the
    // epoch overhead negligible.
    if (spec_.model != MobilityModel::None) {
        const double slots =
            kEpochTravelM / (spec_.speedMps * slotSec_);
        epochSlots_ = static_cast<std::uint64_t>(std::llround(
            std::min(1024.0, std::max(1.0, slots))));
    } else {
        epochSlots_ = 64;
    }

    const TopologySpec &ts = topo_.spec();
    xLo_ = -ts.cellRadiusM;
    xHi_ = (ts.cols - 1) * ts.cellSpacingM + ts.cellRadiusM;
    yLo_ = -ts.cellRadiusM;
    yHi_ = (ts.rows - 1) * ts.cellSpacingM + ts.cellRadiusM;

    const size_t links = static_cast<size_t>(users_) *
                         static_cast<size_t>(cells_);
    gains_.resize(links);
    shadow_.resize(links);
    for (int u = 0; u < users_; ++u) {
        for (int c = 0; c < cells_; ++c) {
            const size_t i = static_cast<size_t>(u) *
                                 static_cast<size_t>(cells_) +
                             static_cast<size_t>(c);
            // Epoch 0 reuses the deployment's own matrix bit for
            // bit; shadowing is static per link, so only the
            // pathloss term is re-evaluated on later epochs.
            gains_[i] = topo_.linkGainLin(u, c);
            shadow_[i] = topo_.pathloss().shadowingDb(u, c);
        }
    }

    serving_.resize(static_cast<size_t>(users_));
    for (int u = 0; u < users_; ++u)
        serving_[static_cast<size_t>(u)] = topo_.servingCell(u);
    active_.assign(static_cast<size_t>(users_), 1);
    hoCand_.assign(static_cast<size_t>(users_), -1);
    hoSince_.assign(static_cast<size_t>(users_), 0);
    prevCell_.assign(static_cast<size_t>(users_), -1);
    lastHoSlot_.assign(static_cast<size_t>(users_), UINT64_MAX);
    nextToggle_.assign(static_cast<size_t>(users_), UINT64_MAX);
    toggleIdx_.assign(static_cast<size_t>(users_), 0);
    if (spec_.churnRate > 0.0) {
        for (int u = 0; u < users_; ++u)
            nextToggle_[static_cast<size_t>(u)] = churnDwell(u, 0);
    }
    handovers_.assign(static_cast<size_t>(users_), 0);
    pingPongs_.assign(static_cast<size_t>(users_), 0);
    joins_.assign(static_cast<size_t>(users_), 0);
    leaves_.assign(static_cast<size_t>(users_), 0);
    firstHoSlot_.assign(static_cast<size_t>(users_), UINT64_MAX);
}

double
MobilityRuntime::fold(double p, double lo, double hi)
{
    // Triangle-wave reflection into [lo, hi]: the exact position of
    // a billiard traveler after any number of wall bounces, still a
    // pure function of the unfolded coordinate.
    const double period = 2.0 * (hi - lo);
    double q = std::fmod(p - lo, period);
    if (q < 0.0)
        q += period;
    return q <= hi - lo ? lo + q : hi - (q - (hi - lo));
}

Position
MobilityRuntime::positionAt(int u, std::uint64_t t) const
{
    wilis_assert(u >= 0 && u < users_, "user %d out of %d", u,
                 users_);
    const Position start = topo_.userPosition(u);
    if (spec_.model == MobilityModel::None)
        return start;

    const CounterRng traj =
        CounterRng(seed_).fork(kTrajStream).fork(
            static_cast<std::uint64_t>(u));
    const double dist =
        spec_.speedMps * slotSec_ * static_cast<double>(t);

    switch (spec_.model) {
      case MobilityModel::Line: {
        const double theta =
            2.0 * std::numbers::pi * traj.doubleAt(0);
        return Position{
            fold(start.x + dist * std::cos(theta), xLo_, xHi_),
            fold(start.y + dist * std::sin(theta), yLo_, yHi_)};
      }
      case MobilityModel::Orbit: {
        // Lap radius in [0.25, 1] x drop radius, centered so the
        // orbit passes through the drop position at t = 0.
        const double r = (0.25 + 0.75 * traj.doubleAt(0)) *
                         topo_.spec().cellRadiusM;
        const double phi0 =
            2.0 * std::numbers::pi * traj.doubleAt(1);
        const double phi = phi0 + dist / r;
        const double cx = start.x - r * std::cos(phi0);
        const double cy = start.y - r * std::sin(phi0);
        return Position{cx + r * std::cos(phi),
                        cy + r * std::sin(phi)};
      }
      case MobilityModel::Waypoint: {
        // Fixed-length legs (one drop radius of travel each) so
        // the current leg index -- and with it the two bracketing
        // waypoints -- is O(1) in t. Waypoint k >= 1 is a keyed
        // uniform draw over the bounding box; waypoint 0 is the
        // drop position.
        const std::uint64_t leg_slots = std::max<std::uint64_t>(
            1, static_cast<std::uint64_t>(std::llround(
                   topo_.spec().cellRadiusM /
                   (spec_.speedMps * slotSec_))));
        const std::uint64_t k = t / leg_slots;
        const double frac =
            static_cast<double>(t - k * leg_slots) /
            static_cast<double>(leg_slots);
        auto waypoint = [&](std::uint64_t idx) {
            if (idx == 0)
                return start;
            return Position{
                xLo_ + (xHi_ - xLo_) * traj.doubleAt(2 * idx),
                yLo_ + (yHi_ - yLo_) * traj.doubleAt(2 * idx + 1)};
        };
        const Position a = waypoint(k);
        const Position b = waypoint(k + 1);
        return Position{a.x + (b.x - a.x) * frac,
                        a.y + (b.y - a.y) * frac};
      }
      case MobilityModel::None:
        break;
    }
    return start;
}

std::uint64_t
MobilityRuntime::churnDwell(int u, std::uint64_t k) const
{
    const double u01 =
        CounterRng(seed_).fork(kChurnStream)
            .fork(static_cast<std::uint64_t>(u))
            .doubleAt(k);
    // Exponential dwell of mean 1/churnRate slots, floored at one
    // slot so the toggle chain always advances.
    const double slots = -std::log1p(-u01) / spec_.churnRate;
    return std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(std::llround(
               std::min(slots, 1e18))));
}

void
MobilityRuntime::refreshRow(int u, std::uint64_t t)
{
    const Position pos = positionAt(u, t);
    const channel::PathlossModel &pl = topo_.pathloss();
    double *row = gains_.data() +
                  static_cast<size_t>(u) *
                      static_cast<size_t>(cells_);
    for (int c = 0; c < cells_; ++c) {
        const Position bs = topo_.cellCenter(c);
        const double dx = pos.x - bs.x;
        const double dy = pos.y - bs.y;
        const double d = std::sqrt(dx * dx + dy * dy);
        // Same expression as Topology's construction-time fill --
        // refSnr minus pathloss plus static shadowing -- so a
        // zero-displacement refresh reproduces the matrix bitwise.
        const double snr_db = pl.linkSnrDbAt(
            d, shadow_[static_cast<size_t>(u) *
                           static_cast<size_t>(cells_) +
                       static_cast<size_t>(c)]);
        row[c] = std::pow(10.0, snr_db / 10.0);
    }
}

int
MobilityRuntime::bestCell(const double *row) const
{
    int best = 0;
    for (int c = 1; c < cells_; ++c) {
        if (row[c] > row[best])
            best = c;
    }
    return best;
}

void
MobilityRuntime::epoch(std::uint64_t t, std::vector<Event> &out)
{
    wilis_assert(t % epochSlots_ == 0,
                 "epoch at slot %llu is not a multiple of the "
                 "%llu-slot epoch",
                 static_cast<unsigned long long>(t),
                 static_cast<unsigned long long>(epochSlots_));
    wilis_assert(lastEpochT_ == UINT64_MAX || t > lastEpochT_,
                 "epoch at slot %llu replays or reorders the last "
                 "epoch at slot %llu",
                 static_cast<unsigned long long>(t),
                 static_cast<unsigned long long>(lastEpochT_));
    lastEpochT_ = t;

    // Positions have not moved at t = 0: the constructor's copy of
    // the deployment matrix *is* the epoch-0 state.
    if (t > 0 && spec_.model != MobilityModel::None) {
        for (int u = 0; u < users_; ++u)
            refreshRow(u, t);
    }

    for (int u = 0; u < users_; ++u) {
        const size_t ui = static_cast<size_t>(u);

        // Churn first: a toggle this epoch supersedes handover
        // evaluation (at most one membership event per user per
        // epoch). Several toggles inside one epoch collapse by
        // parity.
        if (spec_.churnRate > 0.0) {
            bool want = active_[ui] != 0;
            while (nextToggle_[ui] <= t) {
                want = !want;
                ++toggleIdx_[ui];
                nextToggle_[ui] += churnDwell(u, toggleIdx_[ui]);
            }
            if (want != (active_[ui] != 0)) {
                const int from = serving_[ui];
                if (want) {
                    // Rejoin associates with the strongest cell at
                    // the current position (RSRP association, not
                    // the original placement assignment).
                    const int to = bestCell(gainRow(u));
                    serving_[ui] = to;
                    active_[ui] = 1;
                    ++joins_[ui];
                    out.push_back(Event{Event::Kind::Join, u, from,
                                        to, false});
                } else {
                    active_[ui] = 0;
                    ++leaves_[ui];
                    out.push_back(Event{Event::Kind::Leave, u,
                                        from, from, false});
                }
                hoCand_[ui] = -1;
                continue;
            }
        }

        if (spec_.model == MobilityModel::None || !active_[ui])
            continue;

        // A3-style handover: the best neighbor must beat the
        // serving gain by the hysteresis margin continuously for
        // the time-to-trigger window; a candidate change restarts
        // the clock.
        const double *row = gainRow(u);
        const int serv = serving_[ui];
        int best = -1;
        for (int c = 0; c < cells_; ++c) {
            if (c == serv)
                continue;
            if (best < 0 || row[c] > row[best])
                best = c;
        }
        if (best < 0 || row[best] <= row[serv] * hystLin_) {
            hoCand_[ui] = -1;
            continue;
        }
        if (hoCand_[ui] != best) {
            hoCand_[ui] = best;
            hoSince_[ui] = t;
        }
        if (t - hoSince_[ui] < spec_.handoverTttSlots)
            continue;

        const bool pingpong =
            best == prevCell_[ui] &&
            lastHoSlot_[ui] != UINT64_MAX &&
            t - lastHoSlot_[ui] <= kPingPongEpochs * epochSlots_;
        prevCell_[ui] = serv;
        lastHoSlot_[ui] = t;
        serving_[ui] = best;
        hoCand_[ui] = -1;
        ++handovers_[ui];
        if (pingpong)
            ++pingPongs_[ui];
        if (firstHoSlot_[ui] == UINT64_MAX)
            firstHoSlot_[ui] = t;
        out.push_back(
            Event{Event::Kind::Handover, u, serv, best, pingpong});
    }
}

void
MobilityRuntime::saveState(SnapshotWriter &w) const
{
    w.marker(0x4C49424D); // "MBIL"
    w.u64(gains_.size());
    for (double g : gains_)
        w.f64(g);
    for (int u = 0; u < users_; ++u) {
        const size_t ui = static_cast<size_t>(u);
        w.i64(serving_[ui]);
        w.u8(active_[ui]);
        w.i64(hoCand_[ui]);
        w.u64(hoSince_[ui]);
        w.i64(prevCell_[ui]);
        w.u64(lastHoSlot_[ui]);
        w.u64(nextToggle_[ui]);
        w.u64(toggleIdx_[ui]);
        w.u64(handovers_[ui]);
        w.u64(pingPongs_[ui]);
        w.u64(joins_[ui]);
        w.u64(leaves_[ui]);
        w.u64(firstHoSlot_[ui]);
    }
    w.u64(lastEpochT_);
}

void
MobilityRuntime::loadState(SnapshotReader &r, std::uint64_t slot)
{
    r.marker(0x4C49424D);
    const std::uint64_t n = r.u64();
    if (n != gains_.size())
        r.fail(strprintf("gain matrix of %llu entries, this "
                         "deployment has %zu links",
                         static_cast<unsigned long long>(n),
                         gains_.size()));
    for (double &g : gains_) {
        g = r.f64();
        if (!(std::isfinite(g) && g >= 0.0))
            r.fail(strprintf("link gain %g", g));
    }
    for (int u = 0; u < users_; ++u) {
        const size_t ui = static_cast<size_t>(u);
        serving_[ui] =
            static_cast<int>(r.i64In(0, cells_, "serving cell"));
        active_[ui] = r.u8Below(2, "session flag");
        hoCand_[ui] = static_cast<int>(
            r.i64In(-1, cells_, "handover candidate cell"));
        hoSince_[ui] = r.u64();
        prevCell_[ui] =
            static_cast<int>(r.i64In(-1, cells_, "previous cell"));
        lastHoSlot_[ui] = r.u64();
        nextToggle_[ui] = r.u64();
        toggleIdx_[ui] = r.u64();
        handovers_[ui] = r.u64();
        pingPongs_[ui] = r.u64();
        joins_[ui] = r.u64();
        leaves_[ui] = r.u64();
        firstHoSlot_[ui] = r.u64();
    }
    lastEpochT_ = r.u64();
    if (lastEpochT_ != UINT64_MAX && lastEpochT_ >= slot)
        r.fail(strprintf("last mobility epoch at slot %llu, not "
                         "before the snapshot's slot %llu",
                         static_cast<unsigned long long>(lastEpochT_),
                         static_cast<unsigned long long>(slot)));
}

} // namespace sim
} // namespace wilis
