/**
 * @file
 * Multi-cell building blocks: the log-distance pathloss +
 * log-normal shadowing model, the deterministic cell-grid topology
 * with per-user 2-D placement, the JakesFader extraction (pinned
 * against RayleighChannel), the per-user traffic models and the
 * per-cell schedulers. Everything here must be a pure function of
 * its seeds -- replayable in any order.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <limits>
#include <numbers>
#include <vector>

#include "channel/fading.hh"
#include "channel/pathloss.hh"
#include "common/random.hh"
#include "mac/arq.hh"
#include "mac/scheduler.hh"
#include "mac/traffic.hh"
#include "pf_pick_reference.hh"
#include "phy/ofdm_symbol.hh"
#include "sim/topology.hh"

using namespace wilis;

// ------------------------------------------------------- pathloss

TEST(Pathloss, LogDistanceMonotoneAndAnchored)
{
    channel::PathlossSpec spec;
    spec.refSnrDb = 40.0;
    spec.refDistanceM = 10.0;
    spec.exponent = 3.5;
    spec.shadowSigmaDb = 0.0;
    channel::PathlossModel pl(spec, 1);

    // Inside the reference distance the model is flat.
    EXPECT_DOUBLE_EQ(pl.pathlossDb(5.0), 0.0);
    EXPECT_DOUBLE_EQ(pl.pathlossDb(10.0), 0.0);
    // One decade of distance costs 10 * n dB.
    EXPECT_NEAR(pl.pathlossDb(100.0), 35.0, 1e-12);
    EXPECT_LT(pl.pathlossDb(50.0), pl.pathlossDb(200.0));
    // With sigma 0 the link SNR is exactly ref - pathloss.
    EXPECT_NEAR(pl.linkSnrDb(100.0, 3, 7), 5.0, 1e-12);
}

TEST(Pathloss, ShadowingIsKeyedAndScaled)
{
    channel::PathlossSpec spec;
    spec.shadowSigmaDb = 8.0;
    channel::PathlossModel a(spec, 42);
    channel::PathlossModel b(spec, 42);
    channel::PathlossModel c(spec, 43);

    // Same (seed, user, cell) -> same draw, regardless of instance
    // or query order.
    EXPECT_DOUBLE_EQ(a.shadowingDb(4, 2), b.shadowingDb(4, 2));
    EXPECT_DOUBLE_EQ(a.shadowingDb(0, 0), b.shadowingDb(0, 0));
    EXPECT_NE(a.shadowingDb(4, 2), c.shadowingDb(4, 2));
    EXPECT_NE(a.shadowingDb(4, 2), a.shadowingDb(4, 3));
    EXPECT_NE(a.shadowingDb(4, 2), a.shadowingDb(5, 2));

    // Zero-mean, sigma-scaled: check moments over many links.
    double sum = 0.0;
    double sq = 0.0;
    const int n = 4000;
    for (int i = 0; i < n; ++i) {
        const double s = a.shadowingDb(i, i % 7);
        sum += s;
        sq += s * s;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.5);
    EXPECT_NEAR(std::sqrt(sq / n), 8.0, 0.5);
}

// ------------------------------------------------------- topology

namespace {

sim::TopologySpec
gridSpec(int rows, int cols)
{
    sim::TopologySpec t;
    t.rows = rows;
    t.cols = cols;
    t.cellSpacingM = 500.0;
    t.cellRadiusM = 250.0;
    t.minDistanceM = 20.0;
    return t;
}

} // namespace

TEST(Topology, GridGeometryAndRoundRobinAssignment)
{
    sim::Topology topo(gridSpec(2, 3), 13, 0xBEEF);
    EXPECT_EQ(topo.numCells(), 6);
    EXPECT_EQ(topo.numUsers(), 13);

    // Row-major cell centers on the spacing lattice.
    EXPECT_DOUBLE_EQ(topo.cellCenter(0).x, 0.0);
    EXPECT_DOUBLE_EQ(topo.cellCenter(2).x, 1000.0);
    EXPECT_DOUBLE_EQ(topo.cellCenter(3).y, 500.0);

    // Users round-robin across cells; populations differ by <= 1.
    for (int u = 0; u < 13; ++u)
        EXPECT_EQ(topo.servingCell(u), u % 6) << "user " << u;
    for (int c = 0; c < 6; ++c) {
        const auto &users = topo.cellUsers(c);
        EXPECT_GE(static_cast<int>(users.size()), 2);
        EXPECT_LE(static_cast<int>(users.size()), 3);
        for (int u : users)
            EXPECT_EQ(topo.servingCell(u), c);
    }
}

TEST(Topology, PlacementIsDeterministicAndInsideTheCell)
{
    sim::Topology a(gridSpec(3, 3), 36, 0xCAFE);
    sim::Topology b(gridSpec(3, 3), 36, 0xCAFE);
    sim::Topology c(gridSpec(3, 3), 36, 0xCAFF);

    bool any_moved = false;
    for (int u = 0; u < 36; ++u) {
        EXPECT_DOUBLE_EQ(a.userPosition(u).x, b.userPosition(u).x);
        EXPECT_DOUBLE_EQ(a.userPosition(u).y, b.userPosition(u).y);
        any_moved |= a.userPosition(u).x != c.userPosition(u).x;

        const double d = a.servingDistanceM(u);
        EXPECT_GE(d, 20.0) << "user " << u;
        EXPECT_LT(d, 250.0) << "user " << u;
        // The recorded serving distance is the actual Euclidean
        // distance to the serving center.
        const sim::Position p = a.userPosition(u);
        const sim::Position bs = a.cellCenter(a.servingCell(u));
        const double dx = p.x - bs.x;
        const double dy = p.y - bs.y;
        EXPECT_NEAR(std::sqrt(dx * dx + dy * dy), d, 1e-9);
    }
    EXPECT_TRUE(any_moved) << "different seeds, different drop";
}

TEST(Topology, InterferenceDegradesSinrBelowSnr)
{
    sim::TopologySpec spec = gridSpec(3, 3);
    spec.pathloss.shadowSigmaDb = 0.0;
    sim::Topology topo(spec, 18, 1);
    for (int u = 0; u < 18; ++u) {
        // The serving link is the strongest (no shadowing, nearest
        // center by construction of the drop)...
        const int serv = topo.servingCell(u);
        for (int c = 0; c < 9; ++c) {
            if (c != serv) {
                EXPECT_GT(topo.linkSnrDb(u, serv),
                          topo.linkSnrDb(u, c))
                    << "user " << u << " cell " << c;
            }
        }
        // ...and all-cells-on interference always costs SINR.
        EXPECT_LT(topo.staticSinrDb(u), topo.servingSnrDb(u));
    }
}

// ----------------------------------------------------- JakesFader

TEST(JakesFader, PinsTheRayleighChannelFadingProcess)
{
    // The fader was extracted from RayleighChannel; same seed and
    // Doppler must reproduce the channel's gain trajectory exactly
    // (the refactor may not move any PR 1-4 physics).
    const std::uint64_t seed = 77;
    channel::JakesFader fader(20.0, seed);
    channel::RayleighChannel chan({.awgn = {.seed = seed}});
    for (std::uint64_t p : {0ull, 1ull, 5ull, 9ull}) {
        for (int s : {0, 1, 3}) {
            const double t_us =
                static_cast<double>(p) * 2000.0 +
                s * phy::OfdmGeometry::kSymbolUs;
            EXPECT_EQ(fader.gainAt(t_us), chan.gain(p, s))
                << "packet " << p << " symbol " << s;
        }
    }

    // Unit mean power over a long stretch.
    double acc = 0.0;
    const int n = 4000;
    for (int i = 0; i < n; ++i)
        acc += std::norm(fader.gainAt(i * 2000.0));
    EXPECT_NEAR(acc / n, 1.0, 0.15);
}

TEST(JakesFader, PairedOscillatorsHaveOppositeDoppler)
{
    // powerBound() pairs oscillator m with the one at arrival angle
    // a_m + pi; their frequency scales must cancel to rounding.
    SplitMix64 seeds(2024);
    for (int k = 0; k < 2000; ++k) {
        const std::uint64_t seed = seeds.next();
        channel::JakesFader fader(60.0, seed);
        ASSERT_LE(fader.pairingResidue(),
                  8.0 * std::numeric_limits<double>::epsilon())
            << "seed " << seed;
    }
}

TEST(JakesFader, PowerBoundHoldsOverTheHorizon)
{
    // Sampled |h(t)|^2 never exceeds the bound for its horizon, at
    // pedestrian to vehicular Doppler and up to 10^6 slots of 2 ms;
    // the bound is far from the trivial 32 (else it prunes nothing).
    SplitMix64 rng(99);
    double bound_sum = 0.0;
    int faders = 0;
    for (double doppler : {10.0, 30.0, 60.0, 120.0}) {
        for (double slots : {1e3, 1e6}) {
            const double horizon_us = slots * 2000.0;
            for (int k = 0; k < 32; ++k) {
                const std::uint64_t seed = rng.next();
                channel::JakesFader fader(doppler, seed);
                const double bound = fader.powerBound(horizon_us);
                ASSERT_LE(bound, 32.0);
                double peak = 0.0;
                for (int i = 0; i < 2000; ++i) {
                    const double slot = std::floor(
                        i < 1000 ? rng.nextDouble() * slots
                                 : slots - 1.0 - (i - 1000));
                    peak = std::max(
                        peak,
                        std::norm(fader.gainAt(slot * 2000.0)));
                }
                ASSERT_LE(peak, bound)
                    << "doppler " << doppler << " slots " << slots
                    << " seed " << seed;
                bound_sum += bound;
                ++faders;
            }
        }
    }
    EXPECT_LT(bound_sum / faders, 20.0);
}

TEST(JakesFader, PowerIntervalContainsGainAt)
{
    // The pair form's interval holds std::norm(gainAt(t)) at every
    // sampled slot, at pedestrian to vehicular Doppler and up to
    // 10^6 slots of 2 ms. gainAt() rounds arguments as large as
    // x = 2 pi f_D t, so no interval around another evaluation can
    // be much narrower than x eps: the width is at most 2.5e-13 x
    // (the bound's ceiling), and under 1e-9 while x <= 4000 -- the
    // first 5.3 s at 120 Hz, 64 s at 10 Hz, and every slot of a
    // 200-slot dense-urban-10k run.
    SplitMix64 rng(7);
    double early_width = 0.0;
    for (double doppler : {10.0, 30.0, 60.0, 120.0}) {
        for (int k = 0; k < 64; ++k) {
            const std::uint64_t seed = rng.next();
            channel::JakesFader fader(doppler, seed);
            const channel::JakesPairForm pairs(fader);
            for (int i = 0; i < 400; ++i) {
                // The first 100 slots, then log-uniform to 10^6.
                const double slot =
                    i < 100 ? i
                            : std::floor(std::pow(
                                  10.0, 6.0 * rng.nextDouble()));
                const double t_us = slot * 2000.0;
                const double h2 = std::norm(fader.gainAt(t_us));
                const channel::PowerInterval p = pairs.powerAt(t_us);
                ASSERT_LE(p.lo, h2) << "doppler " << doppler
                                    << " seed " << seed << " slot "
                                    << slot;
                ASSERT_LE(h2, p.hi) << "doppler " << doppler
                                    << " seed " << seed << " slot "
                                    << slot;
                const double x =
                    2.0 * std::numbers::pi * doppler * t_us * 1e-6;
                ASSERT_LT(p.hi - p.lo, std::max(1e-9, 2.5e-13 * x))
                    << "doppler " << doppler << " seed " << seed
                    << " slot " << slot;
                if (slot < 100)
                    early_width = std::max(early_width, p.hi - p.lo);
            }
        }
    }
    EXPECT_LT(early_width, 1e-10) << "first 100 slots";
}

// -------------------------------------------------------- traffic

TEST(Traffic, FullBufferIsAlwaysBackloggedAndQueueless)
{
    mac::TrafficSpec spec;
    spec.kind = mac::TrafficKind::FullBuffer;
    mac::TrafficSource src(spec, 1);
    for (std::uint64_t t = 0; t < 5; ++t) {
        src.tick(t);
        EXPECT_TRUE(src.backlogged());
        EXPECT_EQ(src.depth(), 0);
        EXPECT_EQ(src.pop(t).arrival, t)
            << "frames materialize at service";
    }
    EXPECT_EQ(src.arrivals(), 0u);
    EXPECT_EQ(src.drops(), 0u);
}

TEST(Traffic, PoissonMatchesItsMeanAndReplays)
{
    mac::TrafficSpec spec;
    spec.kind = mac::TrafficKind::Poisson;
    spec.load = 0.3;
    spec.queueLimit = 1000000; // count arrivals, not drops
    mac::TrafficSource a(spec, 99);
    mac::TrafficSource b(spec, 99);
    const std::uint64_t slots = 20000;
    for (std::uint64_t t = 0; t < slots; ++t) {
        a.tick(t);
        b.tick(t);
    }
    EXPECT_EQ(a.arrivals(), b.arrivals()) << "same seed, same draw";
    const double mean =
        static_cast<double>(a.arrivals()) /
        static_cast<double>(slots);
    EXPECT_NEAR(mean, 0.3, 0.02);
}

TEST(Traffic, OnOffBurstsAndQueueBound)
{
    mac::TrafficSpec spec;
    spec.kind = mac::TrafficKind::OnOff;
    spec.load = 1.0;
    spec.onSlots = 16.0;
    spec.offSlots = 48.0;
    spec.queueLimit = 8;
    mac::TrafficSource src(spec, 7);

    std::uint64_t on_slots = 0;
    const std::uint64_t slots = 20000;
    for (std::uint64_t t = 0; t < slots; ++t) {
        src.tick(t);
        on_slots += src.on() ? 1 : 0;
        EXPECT_LE(src.depth(), 8);
    }
    // Duty cycle ~ on / (on + off) = 25%.
    const double duty = static_cast<double>(on_slots) /
                        static_cast<double>(slots);
    EXPECT_NEAR(duty, 0.25, 0.05);
    // Nothing ever drained the queue, so the bound must have
    // dropped most of the burst traffic.
    EXPECT_GT(src.arrivals(), slots / 8);
    EXPECT_EQ(src.drops() + 8, src.arrivals());
}

TEST(Traffic, QueueIsFifoWithArrivalStamps)
{
    mac::TrafficSpec spec;
    spec.kind = mac::TrafficKind::Poisson;
    spec.load = 0.9;
    mac::TrafficSource src(spec, 3);
    std::uint64_t last = 0;
    bool first = true;
    for (std::uint64_t t = 0; t < 200; ++t) {
        src.tick(t);
        if (src.backlogged()) {
            const std::uint64_t arrival = src.pop(t).arrival;
            EXPECT_LE(arrival, t);
            if (!first) {
                EXPECT_GE(arrival, last) << "FIFO order";
            }
            last = arrival;
            first = false;
        }
    }
    EXPECT_FALSE(first) << "load 0.9 must produce arrivals";
}

// ------------------------------------------------------ scheduler

TEST(Scheduler, RoundRobinCyclesOverEligibleUsers)
{
    mac::CellScheduler::Config cfg;
    cfg.kind = mac::SchedulerKind::RoundRobin;
    mac::CellScheduler sched(cfg, 4);

    std::vector<std::uint8_t> all(4, 1);
    std::vector<double> rate(4, 0.0);
    std::vector<int> grants;
    for (int i = 0; i < 8; ++i) {
        const int pick = sched.pick(all, rate, {});
        grants.push_back(pick);
        sched.update(pick, 1000.0);
    }
    EXPECT_EQ(grants,
              (std::vector<int>{0, 1, 2, 3, 0, 1, 2, 3}));

    // Ineligible users are skipped without losing the rotation.
    std::vector<std::uint8_t> some = {0, 1, 0, 1};
    const int pick = sched.pick(some, rate, {});
    EXPECT_EQ(pick, 1);
    sched.update(pick, 1000.0);
    EXPECT_EQ(sched.pick(some, rate, {}), 3);

    std::vector<std::uint8_t> none(4, 0);
    EXPECT_EQ(sched.pick(none, rate, {}), -1);
}

TEST(Scheduler, ProportionalFairBalancesRateAndStarvation)
{
    mac::CellScheduler::Config cfg;
    cfg.kind = mac::SchedulerKind::ProportionalFair;
    cfg.pfHorizonSlots = 16.0;
    mac::CellScheduler sched(cfg, 2);
    // Each user's exact rate, also passed as its own bound.
    auto exact = [](const std::vector<double> &r) {
        return [&r](int u) { return r[static_cast<size_t>(u)]; };
    };

    // Constant unequal channels: proportional fairness converges
    // to *equal airtime* (that is its defining property -- the
    // stronger user wins throughput, not slots).
    std::vector<std::uint8_t> all(2, 1);
    std::vector<double> rate = {3.0, 1.0};
    int grants0 = 0;
    for (int i = 0; i < 400; ++i) {
        const int pick = sched.pick(all, rate, exact(rate));
        if (pick == 0)
            ++grants0;
        sched.update(pick, rate[static_cast<size_t>(pick)]);
    }
    EXPECT_NEAR(grants0, 200, 20)
        << "constant channels -> equal airtime";

    // Fluctuating channel: PF rides the peaks. User 0 alternates
    // between a strong and a weak slot; nearly every grant it gets
    // must land on a strong one.
    mac::CellScheduler opp(cfg, 2);
    int strong_grants = 0;
    int weak_grants = 0;
    for (int i = 0; i < 400; ++i) {
        const bool strong = i % 2 == 0;
        std::vector<double> r = {strong ? 4.0 : 0.5, 1.0};
        const int pick = opp.pick(all, r, exact(r));
        if (pick == 0)
            (strong ? strong_grants : weak_grants) += 1;
        opp.update(pick, r[static_cast<size_t>(pick)]);
    }
    EXPECT_GT(strong_grants, 8 * (weak_grants + 1))
        << "PF must schedule the fluctuating user at its peaks";
    EXPECT_GT(strong_grants, 50);

    // Deterministic tie-break: equal metrics pick the lowest index.
    mac::CellScheduler tie(cfg, 3);
    std::vector<std::uint8_t> el(3, 1);
    std::vector<double> eq(3, 2.0);
    EXPECT_EQ(tie.pick(el, eq, exact(eq)), 0);
}

TEST(Scheduler, ProportionalFairPickMatchesTheExhaustiveArgmax)
{
    // The bounded pick must grant exactly what evaluating every
    // candidate grants, over eligibility, urgency, floored and
    // equal averages, exact ties and bounds equal to the rate, and
    // evaluate each user's rate at most once.
    mac::CellScheduler::Config cfg;
    cfg.kind = mac::SchedulerKind::ProportionalFair;
    SplitMix64 rng(5);
    auto pick_from = [&](const double *set, int n) {
        return set[rng.next() % static_cast<std::uint64_t>(n)];
    };
    const double avgs[] = {0.0, 1e-13, 0.5, 0.5, 1.0, 2.0};
    const double rates[] = {0.0, 1.0, 1.0, 2.0, 3.0};
    int pruned = 0;
    for (int trial = 0; trial < 4000; ++trial) {
        const int n = 1 + static_cast<int>(rng.next() % 12);
        mac::CellScheduler sched(cfg, 0);
        std::vector<std::uint8_t> elig(static_cast<size_t>(n));
        std::vector<std::uint8_t> urgent(static_cast<size_t>(n));
        std::vector<double> rate(static_cast<size_t>(n));
        std::vector<double> bound(static_cast<size_t>(n));
        for (int u = 0; u < n; ++u) {
            const size_t i = static_cast<size_t>(u);
            sched.insertUser(u, rng.nextBit()
                                    ? pick_from(avgs, 6)
                                    : rng.nextDouble() * 4.0);
            elig[i] = rng.next() % 4 != 0;
            urgent[i] = rng.next() % 5 == 0;
            rate[i] = rng.nextBit() ? pick_from(rates, 5)
                                    : rng.nextDouble() * 8.0;
            switch (rng.next() % 3) {
              case 0:
                bound[i] = rate[i];
                break;
              case 1:
                bound[i] = rate[i] * (1.0 + rng.nextDouble());
                break;
              default:
                bound[i] = rate[i] + rng.nextDouble() * 8.0;
            }
        }
        std::vector<int> calls(static_cast<size_t>(n), 0);
        auto exact = [&](int u) {
            ++calls[static_cast<size_t>(u)];
            return rate[static_cast<size_t>(u)];
        };
        const std::vector<std::uint8_t> *urg =
            rng.nextBit() ? &urgent : nullptr;
        const int got = sched.pick(elig, bound, exact, urg);
        ASSERT_EQ(got, mac::pfPickReference(sched, elig, rate, urg))
            << "trial " << trial;
        int candidates = 0;
        int evaluated = 0;
        for (int u = 0; u < n; ++u) {
            const size_t i = static_cast<size_t>(u);
            ASSERT_LE(calls[i], 1) << "trial " << trial;
            ASSERT_TRUE(elig[i] || !calls[i]) << "trial " << trial;
            candidates += elig[i];
            evaluated += calls[i];
        }
        pruned += candidates - evaluated;
    }
    EXPECT_GT(pruned, 0);

    // A dominated user is never evaluated; one whose bound only
    // ties the best is, and may win the tie by its lower index.
    mac::CellScheduler sched(cfg, 0);
    for (int u = 0; u < 3; ++u)
        sched.insertUser(u, 1.0);
    const std::vector<std::uint8_t> all(3, 1);
    std::vector<double> rate = {1.0, 4.0, 2.0};
    std::vector<int> calls(3, 0);
    auto exact = [&](int u) {
        ++calls[static_cast<size_t>(u)];
        return rate[static_cast<size_t>(u)];
    };
    EXPECT_EQ(sched.pick(all, {1.5, 4.0, 4.5}, exact), 1);
    EXPECT_EQ(calls, (std::vector<int>{0, 1, 1}));
    rate = {4.0, 4.0, 2.0};
    calls.assign(3, 0);
    EXPECT_EQ(sched.pick(all, {4.0, 4.0, 3.0}, exact), 0);
    EXPECT_EQ(calls, (std::vector<int>{1, 1, 0}));
}

TEST(Scheduler, IntervalPickMatchesTheExhaustiveArgmax)
{
    // With per-slot intervals the pick must still grant exactly the
    // exhaustive argmax, under adversarial intervals: zero-width,
    // as wide as [0, bound], touching the bound; exact metric ties;
    // never-served users at the 1e-12 average floor; urgent
    // subsets. The exact rate is called at most once per user and
    // only for survivors: candidates whose upper metric reaches the
    // largest lower metric of any candidate.
    mac::CellScheduler::Config cfg;
    cfg.kind = mac::SchedulerKind::ProportionalFair;
    SplitMix64 rng(11);
    auto pick_from = [&](const double *set, int n) {
        return set[rng.next() % static_cast<std::uint64_t>(n)];
    };
    const double avgs[] = {0.0, 1e-13, 1e-12, 0.5, 0.5, 1.0, 2.0};
    const double rates[] = {0.0, 1.0, 1.0, 2.0, 3.0};
    std::uint64_t evaluated = 0;
    std::uint64_t candidates = 0;
    for (int trial = 0; trial < 6000; ++trial) {
        const int n = 1 + static_cast<int>(rng.next() % 12);
        mac::CellScheduler sched(cfg, 0);
        std::vector<std::uint8_t> elig(static_cast<size_t>(n));
        std::vector<std::uint8_t> urgent(static_cast<size_t>(n));
        std::vector<double> rate(static_cast<size_t>(n));
        std::vector<double> bound(static_cast<size_t>(n));
        std::vector<mac::RateInterval> iv(static_cast<size_t>(n));
        for (int u = 0; u < n; ++u) {
            const size_t i = static_cast<size_t>(u);
            sched.insertUser(u, rng.nextBit()
                                    ? pick_from(avgs, 7)
                                    : rng.nextDouble() * 4.0);
            elig[i] = rng.next() % 4 != 0;
            urgent[i] = rng.next() % 5 == 0;
            rate[i] = rng.nextBit() ? pick_from(rates, 5)
                                    : rng.nextDouble() * 8.0;
            bound[i] = rng.nextBit()
                           ? rate[i]
                           : rate[i] + rng.nextDouble() * 8.0;
            switch (rng.next() % 4) {
              case 0: // zero width
                iv[i] = {rate[i], rate[i]};
                break;
              case 1: // as wide as the static bound allows
                iv[i] = {0.0, bound[i]};
                break;
              case 2: // touching the bound
                iv[i] = {rate[i] * rng.nextDouble(), bound[i]};
                break;
              default:
                iv[i] = {rate[i] * rng.nextDouble(),
                         rate[i] + (bound[i] - rate[i]) *
                                       rng.nextDouble()};
            }
        }
        std::vector<int> calls(static_cast<size_t>(n), 0);
        auto exact = [&](int u) {
            ++calls[static_cast<size_t>(u)];
            return rate[static_cast<size_t>(u)];
        };
        auto interval = [&](int u) { return iv[static_cast<size_t>(u)]; };
        const std::vector<std::uint8_t> *urg =
            rng.nextBit() ? &urgent : nullptr;
        const int got = sched.pick(elig, bound, exact, urg, interval);
        ASSERT_EQ(got, mac::pfPickReference(sched, elig, rate, urg))
            << "trial " << trial;

        // The candidate set and its largest lower metric.
        bool any_urgent = false;
        for (int u = 0; urg && u < n; ++u)
            any_urgent |= elig[static_cast<size_t>(u)] &&
                          urgent[static_cast<size_t>(u)];
        auto is_candidate = [&](size_t i) {
            return elig[i] && (!any_urgent || urgent[i]);
        };
        auto avg = [&](size_t i) {
            return std::max(sched.averageRate(static_cast<int>(i)),
                            1e-12);
        };
        double best_lo = -1.0;
        for (size_t i = 0; i < static_cast<size_t>(n); ++i) {
            if (is_candidate(i))
                best_lo = std::max(best_lo, iv[i].lo / avg(i));
        }
        for (size_t i = 0; i < static_cast<size_t>(n); ++i) {
            ASSERT_LE(calls[i], 1) << "trial " << trial;
            if (calls[i]) {
                ASSERT_TRUE(is_candidate(i)) << "trial " << trial;
                ASSERT_GE(iv[i].hi / avg(i), best_lo)
                    << "trial " << trial << ": user " << i
                    << " evaluated past its interval";
            }
            candidates += is_candidate(i);
            evaluated += static_cast<std::uint64_t>(calls[i]);
        }
    }
    EXPECT_LT(evaluated, candidates / 2);

    // Zero-width intervals: the winner's exact rate is the one call
    // unless another survivor ties it.
    mac::CellScheduler sched(cfg, 0);
    for (int u = 0; u < 3; ++u)
        sched.insertUser(u, 1.0);
    const std::vector<std::uint8_t> all(3, 1);
    std::vector<double> rate = {1.0, 4.0, 2.0};
    std::vector<int> calls(3, 0);
    auto exact = [&](int u) {
        ++calls[static_cast<size_t>(u)];
        return rate[static_cast<size_t>(u)];
    };
    auto tight = [&](int u) {
        const double r = rate[static_cast<size_t>(u)];
        return mac::RateInterval{r, r};
    };
    EXPECT_EQ(sched.pick(all, {8.0, 8.0, 8.0}, exact, nullptr, tight),
              1);
    EXPECT_EQ(calls, (std::vector<int>{0, 1, 0}));
    rate = {4.0, 4.0, 2.0};
    calls.assign(3, 0);
    EXPECT_EQ(sched.pick(all, {8.0, 8.0, 8.0}, exact, nullptr, tight),
              0);
    EXPECT_EQ(calls, (std::vector<int>{1, 1, 0}));
}

// ----------------------------------------------- ARQ grant gating

TEST(Arq, NewFramesAreGatedByAllowNew)
{
    mac::Arq::Config cfg;
    cfg.mode = mac::ArqMode::SelectiveRepeat;
    cfg.window = 4;
    cfg.ackDelaySlots = 0;
    mac::Arq arq(cfg);

    EXPECT_TRUE(arq.windowHasRoom());
    EXPECT_FALSE(arq.hasResend());

    // Nothing queued: allow_new=false keeps the link idle.
    std::uint64_t seq = 0;
    EXPECT_FALSE(arq.nextToSend(0, seq, false));

    // A failed new frame becomes a resend that ignores the gate.
    EXPECT_TRUE(arq.nextToSend(0, seq, true));
    EXPECT_EQ(seq, 0u);
    arq.onSendResult(seq, false);
    EXPECT_TRUE(arq.hasResend());
    EXPECT_TRUE(arq.nextToSend(1, seq, false));
    EXPECT_EQ(seq, 0u);
    arq.onSendResult(seq, true);

    std::vector<mac::Arq::Delivery> out;
    arq.tick(2, out);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].attempts, 2);
}
