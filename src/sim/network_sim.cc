#include "sim/network_sim.hh"

#include <algorithm>
#include <cmath>
#include <complex>
#include <memory>
#include <optional>
#include <utility>

#include "channel/fading.hh"
#include "common/lockstep.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "mac/arq.hh"
#include "mac/softrate.hh"
#include "sim/link_fidelity.hh"
#include "sim/multicell_detail.hh"
#include "sim/multicell_sim.hh"
#include "sim/worker_phy.hh"
#include "softphy/softphy.hh"

namespace wilis {
namespace sim {

void
UserStats::merge(const UserStats &other)
{
    for (const auto &f : kUserStatsCounters)
        this->*f.member += other.*f.member;
    for (const auto &f : kUserStatsMoments)
        (this->*f.member).merge(other.*f.member);
    for (const auto &f : kUserStatsHists)
        (this->*f.member).merge(other.*f.member);
}

NetworkSim::NetworkSim(const NetworkSpec &spec)
    : NetworkSim(spec, nullptr)
{}

NetworkSim::NetworkSim(
    const NetworkSpec &spec,
    std::shared_ptr<const softphy::CalibrationTable> table)
    : spec_(spec),
      estimator(softphy::analyticRateEstimator(spec.link.rx)),
      calib(std::move(table))
{
    wilis_assert(spec_.numUsers >= 1, "network needs >= 1 user");
    wilis_assert(spec_.link.rate >= 0 &&
                     spec_.link.rate < phy::kNumRates,
                 "initial rate %d out of range", spec_.link.rate);
    if (spec_.multicell())
        topo = std::make_unique<Topology>(spec_.topology,
                                          spec_.numUsers,
                                          spec_.seed);
    ensureCalibration();
}

softphy::CalibrationTable::BuildSpec
NetworkSim::calibrationBuildSpec(const NetworkSpec &spec)
{
    softphy::CalibrationTable::BuildSpec b;
    b.rx = spec.link.rx;
    b.payloadBits = spec.link.payloadBits;
    // Conditioning on the per-slot fading gain reduces every slot to
    // a flat channel at the effective SNR, so the table is measured
    // against "awgn" across the SNR range the cell's users can
    // actually reach: mean +- near/far spread, widened by typical
    // Rayleigh excursions (deep fades below bin 0 clamp to its
    // PER ~ 1 edge, peaks above the top bin to its residual).
    b.channel = "awgn";
    b.snrStepDb = 2.0;
    if (spec.multicell()) {
        // The deployment's SNR span comes from the link-budget
        // extremes, not the single-cell spread: cell edge with a
        // deep shadowing draw at the bottom (interference pushes
        // further down, where the table's PER ~ 1 edge bin already
        // saturates), minimum distance with a high draw at the
        // top. 2.5 sigma covers ~99% of shadowing draws.
        const channel::PathlossModel pl(spec.topology.pathloss, 0);
        const double shadow =
            2.5 * spec.topology.pathloss.shadowSigmaDb;
        double lo = spec.topology.pathloss.refSnrDb -
                    pl.pathlossDb(spec.topology.cellRadiusM) -
                    shadow - 12.0;
        double hi =
            spec.topology.pathloss.refSnrDb -
            pl.pathlossDb(spec.topology.minDistanceM) + shadow;
        // Clamp to the PHY's informative window: below -10 dB every
        // rate has saturated to PER ~ 1 and above 28 dB every rate
        // is at its residual, so bins outside it measure nothing
        // the edge clamping doesn't already model (and the
        // committed network_calibration.txt covers exactly this
        // window). lo is clamped below the hi ceiling so even an
        // all-users-near-the-mast geometry keeps >= 1 bin.
        lo = std::min(std::max(lo, -10.0), 28.0 - b.snrStepDb);
        hi = std::min(std::max(hi, lo + b.snrStepDb), 28.0);
        b.snrLoDb = lo;
        b.numBins = static_cast<int>(
            std::ceil((hi - b.snrLoDb) / b.snrStepDb));
        return b;
    }
    const double mean = spec.link.snrDb();
    b.snrLoDb = mean - spec.snrSpreadDb - 18.0;
    const double hi = mean + spec.snrSpreadDb + 8.0;
    b.numBins = static_cast<int>(
        std::ceil((hi - b.snrLoDb) / b.snrStepDb));
    return b;
}

std::shared_ptr<const softphy::CalibrationTable>
NetworkSim::calibrationFor(const NetworkSpec &spec)
{
    if (spec.fidelity.mode == FidelityMode::Full)
        return nullptr;
    return std::make_shared<const softphy::CalibrationTable>(
        spec.calibrationFile.empty()
            ? softphy::CalibrationTable::build(calibrationBuildSpec(spec))
            : softphy::CalibrationTable::load(spec.calibrationFile));
}

void
NetworkSim::ensureCalibration()
{
    if (spec_.fidelity.mode == FidelityMode::Full) {
        return; // the bit-exact path needs no table
    }
    if (!calib)
        calib = calibrationFor(spec_);
    wilis_assert(calib->valid(),
                 "fidelity mode '%s' needs a valid calibration table",
                 kFidelityModeNames.name(spec_.fidelity.mode).data());
    // A table measured for a different frame geometry or receiver
    // still *runs*, but its error rates describe another link; warn
    // loudly instead of silently mis-modeling. The channel kind is
    // part of that contract: the analytic path already conditions
    // on the per-slot fading gain, so its table must be flat
    // ("awgn") -- a fading-averaged table would count fading twice.
    const softphy::CalibrationTable::BuildSpec want =
        calibrationBuildSpec(spec_);
    if (calib->payloadBits() != spec_.link.payloadBits ||
        calib->decoder() != spec_.link.rx.decoder ||
        calib->softWidth() != spec_.link.rx.demapper.softWidth ||
        calib->channelKind() != want.channel) {
        wilis_warn(
            "calibration table (payload %zu, decoder %s, width %d, "
            "channel %s) does not match the link template "
            "(payload %zu, decoder %s, width %d, channel %s); "
            "analytic statistics will be biased",
            calib->payloadBits(), calib->decoder().c_str(),
            calib->softWidth(), calib->channelKind().c_str(),
            spec_.link.payloadBits,
            spec_.link.rx.decoder.c_str(),
            spec_.link.rx.demapper.softWidth,
            want.channel.c_str());
    }
    // SNR coverage is provenance too: lookups outside the calibrated
    // window clamp to the edge bins, so a cell whose users live
    // beyond the table's range would be silently modeled at the
    // nearest calibrated SNR.
    const double have_hi =
        calib->snrLoDb() + calib->numBins() * calib->snrStepDb();
    const double want_hi =
        want.snrLoDb + want.numBins * want.snrStepDb;
    if (calib->snrLoDb() > want.snrLoDb + 1e-9 ||
        have_hi < want_hi - 1e-9) {
        wilis_warn(
            "calibration table covers [%g, %g] dB but this cell "
            "needs [%g, %g] dB; out-of-range slots clamp to the "
            "edge bins",
            calib->snrLoDb(), have_hi, want.snrLoDb, want_hi);
    }
}

NetworkSim::UserSeeds
NetworkSim::userSeeds(int user) const
{
    wilis_assert(user >= 0 && user < spec_.numUsers,
                 "user %d out of %d", user, spec_.numUsers);
    CounterRng root =
        CounterRng(spec_.seed).fork(static_cast<std::uint64_t>(user));
    UserSeeds s;
    s.snrOffsetDb =
        (root.doubleAt(0) * 2.0 - 1.0) * spec_.snrSpreadDb;
    s.channelSeed = root.at(1);
    s.payloadSeed = root.at(2);
    s.arrivalStream = root.at(3);
    // Counter 4 extends the PR 2 scheme without disturbing the
    // existing streams: full-fidelity runs stay bit-identical to
    // their pre-fidelity trajectories.
    s.fidelityStream = root.at(4);
    return s;
}

NetworkResult
NetworkSim::run(std::uint64_t slots, int threads)
{
    // Both engines record 32-bit slots into the trace.
    wilis_fatal_if(spec_.trace && slots >= mac::PacketTrace::kMaxSlots,
                   "trace=true records 32-bit slots: slots=%llu must "
                   "be below 2^31 for a traced run",
                   static_cast<unsigned long long>(slots));
    if (spec_.multicell())
        return runMulticellSoa(spec_, *topo, estimator, calib, slots,
                               threads, soaCache);

    NetworkResult res;
    res.spec = spec_;
    res.slots = slots;
    res.users.resize(static_cast<size_t>(spec_.numUsers));

    const size_t payload_bits = spec_.link.payloadBits;
    const bool bernoulli = spec_.arrivalModel == ArrivalModel::Bernoulli;

    // One trace shard per user: each worker records into its own
    // lane, finalize() sorts into the canonical order, so the trace
    // is bit-identical for any thread count.
    std::shared_ptr<mac::PacketTrace> trace;
    if (spec_.trace)
        trace = std::make_shared<mac::PacketTrace>(spec_.numUsers);

    // One work item = one user's whole timeline: links are
    // independent, so lockstep rounds and per-user runs produce the
    // same trajectories, and the latter shards with no per-slot
    // barrier. All state a slot touches is either per-user (channel,
    // ARQ, SoftRate, stats) or per-worker (kernels + arena), and
    // every random stream is keyed by (seed, user, slot/seq), so
    // results are independent of the sharding.
    auto run_user = [&](WorkerPhy &phy, std::uint64_t u) {
        const UserSeeds seeds = userSeeds(static_cast<int>(u));
        const double mean_snr_db =
            spec_.link.snrDb() + seeds.snrOffsetDb;

        channel::Ar1FadingChannel chan(
            {.awgn = {.snrDb = mean_snr_db, .seed = seeds.channelSeed},
             .dopplerHz = spec_.dopplerHz,
             .frameIntervalUs = spec_.frameIntervalUs});
        const CounterRng arrivals(seeds.arrivalStream);

        // The analytic rung's draws; the full rung needs no state
        // beyond the worker's PHY context and the user's channel.
        std::optional<AnalyticLink> analytic;
        if (spec_.fidelity.mode != FidelityMode::Full)
            analytic.emplace(calib.get(), seeds.fidelityStream);

        mac::SoftRateMac::Config src;
        src.pberLo = spec_.pberLo;
        src.pberHi = spec_.pberHi;
        src.initialRate = spec_.link.rate;
        mac::SoftRateMac softrate(src);

        mac::Arq::Config ac;
        ac.mode = spec_.arqMode;
        ac.window = spec_.arqWindow;
        ac.maxAttempts = spec_.arqMaxAttempts;
        ac.ackDelaySlots = spec_.ackDelaySlots;
        mac::Arq arq(ac);

        UserStats st;
        st.user = static_cast<int>(u);
        st.snrOffsetDb = seeds.snrOffsetDb;

        // Single-cell links have no upper-stack queue: a frame's
        // "arrival" is its first grant slot, and the ARQ sequence
        // number doubles as the packet id.
        detail::TraceCtx tctx;
        if (trace)
            tctx.bind(trace.get(), static_cast<int>(u), 0,
                      static_cast<int>(u), arq.windowSize());

        std::vector<mac::Arq::Delivery> deliveries;
        deliveries.reserve(static_cast<size_t>(arq.windowSize()) + 1);

        for (std::uint64_t t = 0; t < slots; ++t) {
            deliveries.clear();
            arq.tick(t, deliveries);
            for (const auto &d : deliveries)
                detail::recordDelivery(st, d, payload_bits, t, tctx);

            // Traffic model: under "bernoulli" the user only holds
            // the (shared, slotted) medium in its arrival slots;
            // "full" offers a frame every slot.
            if (bernoulli &&
                arrivals.doubleAt(t) >= spec_.arrivalProb)
                continue;

            std::uint64_t seq = 0;
            if (!arq.nextToSend(t, seq)) {
                ++st.stalledSlots;
                continue;
            }
            if (arq.attemptsOf(seq) == 1)
                detail::notePop(
                    tctx, seq,
                    mac::Packet{t, seq, mac::TrafficClass::Data});
            detail::recordGrant(tctx, t, seq, arq.attemptsOf(seq),
                                0);

            const phy::RateIndex rate = softrate.currentRate();
            LinkFrameResult res;
            if (spec_.fidelity.fullPhySlot(t)) {
                res = phy.frame(rate, spec_.link, chan, estimator,
                                seeds.payloadSeed, seq, t);
            } else {
                // Block fading: one gain per slot; conditioning on
                // |h|^2 turns the slot into a flat channel at the
                // effective SNR, which is exactly what the table was
                // calibrated against.
                const double h2 = std::norm(chan.gain(t, 0));
                const double snr_db =
                    h2 <= 0.0 ? kZeroSinrDb
                              : mean_snr_db + 10.0 * std::log10(h2);
                res = analytic->drawAt(rate, t, snr_db);
            }

            ++st.framesSent;
            st.framesOk += res.ok ? 1 : 0;
            if (res.fullPhy)
                ++st.fullPhyFrames;
            else
                ++st.analyticFrames;
            st.rateHist.add(static_cast<double>(rate));
            detail::recordTx(tctx, t, seq, res.ok,
                             static_cast<int>(rate));

            softrate.onFeedback(res.pber);
            arq.onSendResult(seq, res.ok);
        }

        // Drain acknowledgements still in flight at the horizon so
        // their deliveries are counted (no new transmissions).
        for (std::uint64_t t = slots;
             t <= slots + spec_.ackDelaySlots; ++t) {
            deliveries.clear();
            arq.tick(t, deliveries);
            for (const auto &d : deliveries)
                detail::recordDelivery(st, d, payload_bits, t, tctx);
        }

        st.retransmissions = arq.retransmissions();
        // No mobility on the single-cell timeline: the whole run is
        // "before the first handover".
        st.preHoSlots = slots;
        res.users[static_cast<size_t>(u)] = std::move(st);
    };

    const auto num_users = static_cast<std::uint64_t>(spec_.numUsers);
    LockstepTeam team(LockstepTeam::workerCount(threads, num_users));
    std::vector<WorkerPhy> phys(static_cast<size_t>(team.size()));
    team.forEach(num_users, [&](int w, std::uint64_t u) {
        run_user(phys[static_cast<size_t>(w)], u);
    });

    if (trace) {
        trace->finalize(team.size());
        res.trace = trace;
    }

    // Aggregate in user order: the merge sequence is fixed, so the
    // merged floating-point statistics are deterministic too.
    res.aggregate = UserStats();
    res.aggregate.user = -1;
    for (const UserStats &u : res.users)
        res.aggregate.merge(u);
    return res;
}

} // namespace sim
} // namespace wilis
