/**
 * @file
 * Multi-user cell simulator: N independent link sessions -- each
 * owning its derived seeds and mean-SNR offset, a time-correlated
 * AR(1) fading process, a SoftRate adapter and a windowed ARQ
 * instance -- evolving frame slot by frame slot over a shared
 * simulated timeline. This is the system-level payoff WiLIS argues for:
 * rate adaptation and ARQ evaluated on top of the bit-exact PHY,
 * scaled from one link to a whole cell.
 *
 * Execution model: the workers of a LockstepTeam claim users one at
 * a time (LockstepTeam::forEach), one whole user timeline per work
 * item. The heavy per-rate transmitter/receiver kernels and the
 * frame arena live in a PHY context owned by each worker, so the
 * steady state performs no heap allocations in the frame path and
 * workers never contend on the allocator. Every random stream
 * (payload bits, fading innovations, channel noise, traffic
 * arrivals) is keyed by (master seed, user, slot/sequence) through
 * the counter-based generator -- never by worker id -- so a run is
 * bit-identical for any thread count.
 */

#ifndef WILIS_SIM_NETWORK_SIM_HH
#define WILIS_SIM_NETWORK_SIM_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "common/stats.hh"
#include "phy/modulation.hh"
#include "sim/scenario.hh"
#include "sim/topology.hh"
#include "softphy/ber_estimator.hh"
#include "softphy/calibration_table.hh"

namespace wilis {

namespace mac {
class PacketTrace; // mac/packet_trace.hh
}

namespace sim {

struct McSoaCache; // sim/multicell_sim.hh

/**
 * Outcome of one user's link over a network run; the aggregate is
 * the exact merge of all users (in user order, so merged floating-
 * point statistics are deterministic too).
 */
struct UserStats {
    /** Latency histogram range in slots (1-slot bins). */
    static constexpr int kLatencyBins = 64;
    /** Retransmission histogram range in attempts (1-wide bins). */
    static constexpr int kAttemptBins = 16;
    /** Queue-wait / end-to-end histogram bin count (2-slot bins). */
    static constexpr int kWaitBins = 128;

    /** User index (-1 for the aggregate). */
    int user = -1;
    /** Deterministic per-user mean SNR offset in dB. */
    double snrOffsetDb = 0.0;
    /** Serving cell (multi-cell runs; -1 single-cell/aggregate). */
    int servingCell = -1;
    /** Serving-link mean SNR in dB (pathloss + shadowing). */
    double meanSnrDb = 0.0;

    /** Slots in which this user transmitted a frame. */
    std::uint64_t framesSent = 0;
    /** Transmissions decoded without payload errors. */
    std::uint64_t framesOk = 0;
    /**
     * Slots the user had traffic but could not transmit: stalled
     * on the ARQ window (single-cell), or eligible but passed over
     * by the cell scheduler (multi-cell contention).
     */
    std::uint64_t stalledSlots = 0;
    /** Retransmission transmissions (attempts beyond the first). */
    std::uint64_t retransmissions = 0;
    /** Frames delivered in order. */
    std::uint64_t delivered = 0;
    /** Frames dropped after exhausting the retry budget. */
    std::uint64_t dropped = 0;
    /** Payload bits of delivered frames. */
    std::uint64_t goodputBits = 0;
    /** Transmissions simulated by the bit-exact PHY. */
    std::uint64_t fullPhyFrames = 0;
    /** Transmissions drawn from the calibrated analytic model. */
    std::uint64_t analyticFrames = 0;
    /** Traffic-model frame arrivals (0 under full buffer). */
    std::uint64_t arrivals = 0;
    /** Arrivals dropped on a full traffic queue. */
    std::uint64_t queueDrops = 0;

    /** Serving-cell handovers completed (mobility runs only). */
    std::uint64_t handovers = 0;
    /**
     * Handovers that bounced straight back to the previous serving
     * cell within the mobility layer's ping-pong window.
     */
    std::uint64_t pingPongs = 0;
    /** Churn session starts (re-entries after a departure). */
    std::uint64_t joins = 0;
    /** Churn session ends (departures with queue/ARQ teardown). */
    std::uint64_t leaves = 0;
    /** Payload bits delivered before the user's first handover. */
    std::uint64_t goodputBitsPreHo = 0;
    /** Payload bits delivered after the user's first handover. */
    std::uint64_t goodputBitsPostHo = 0;
    /** Slots before the first handover (the run length if none). */
    std::uint64_t preHoSlots = 0;
    /** Slots from the first handover to the horizon (0 if none). */
    std::uint64_t postHoSlots = 0;

    /** Delivery latency in slots (first transmission -> delivery). */
    RunningStats latencySlots;
    /** Head-of-line wait from arrival to first transmission. */
    RunningStats queueWaitSlots;
    /** Per-transmission effective SINR in dB (multi-cell runs). */
    RunningStats sinrDb;
    /** Delivery latency distribution (1-slot bins). */
    Histogram latencyHist{kLatencyBins, 1.0};
    /** Attempts per delivered/dropped frame (1-wide bins). */
    Histogram attemptsHist{kAttemptBins, 1.0};
    /** Transmissions per rate index. */
    Histogram rateHist{phy::kNumRates, 1.0};
    /** Queue-wait distribution, arrival -> first transmission. */
    Histogram queueWaitHist{kWaitBins, 2.0};
    /**
     * End-to-end latency distribution (arrival -> in-order
     * delivery), added at each delivery the packet trace records;
     * filled only when NetworkSpec::trace is on.
     */
    Histogram e2eLatencyHist{kWaitBins, 2.0};

    /** Fraction of transmissions decoded clean. */
    double
    frameSuccessRate() const
    {
        return framesSent ? static_cast<double>(framesOk) /
                                static_cast<double>(framesSent)
                          : 0.0;
    }

    /** Goodput in Mb/s given the slot duration and slot count. */
    double
    goodputMbps(std::uint64_t slots, double frame_interval_us) const
    {
        double us = static_cast<double>(slots) * frame_interval_us;
        return us > 0.0 ? static_cast<double>(goodputBits) / us : 0.0;
    }

    /** Goodput before the first handover in Mb/s (0 if no slots). */
    double
    preHoGoodputMbps(double frame_interval_us) const
    {
        double us = static_cast<double>(preHoSlots) *
                    frame_interval_us;
        return us > 0.0
                   ? static_cast<double>(goodputBitsPreHo) / us
                   : 0.0;
    }

    /** Goodput after the first handover in Mb/s (0 if no slots). */
    double
    postHoGoodputMbps(double frame_interval_us) const
    {
        double us = static_cast<double>(postHoSlots) *
                    frame_interval_us;
        return us > 0.0
                   ? static_cast<double>(goodputBitsPostHo) / us
                   : 0.0;
    }

    /** Merge another user's statistics into this accumulator. */
    void merge(const UserStats &other);
};

/** One accumulated UserStats member: its report key and pointer. */
template <typename T>
struct UserStatsField {
    /** Key in the JSON run report. */
    const char *name;
    /** The member. */
    T UserStats::*member;
};

/**
 * UserStats' accumulated members, in the one order that merge(), the
 * JSON run report and the checkpoint snapshot all walk: the counters,
 * then the running moments, then the histograms.
 */
inline constexpr UserStatsField<std::uint64_t> kUserStatsCounters[] = {
    {"frames_sent", &UserStats::framesSent},
    {"frames_ok", &UserStats::framesOk},
    {"stalled_slots", &UserStats::stalledSlots},
    {"retransmissions", &UserStats::retransmissions},
    {"delivered", &UserStats::delivered},
    {"dropped", &UserStats::dropped},
    {"goodput_bits", &UserStats::goodputBits},
    {"full_phy_frames", &UserStats::fullPhyFrames},
    {"analytic_frames", &UserStats::analyticFrames},
    {"arrivals", &UserStats::arrivals},
    {"queue_drops", &UserStats::queueDrops},
    {"handovers", &UserStats::handovers},
    {"ping_pongs", &UserStats::pingPongs},
    {"joins", &UserStats::joins},
    {"leaves", &UserStats::leaves},
    {"goodput_bits_pre_ho", &UserStats::goodputBitsPreHo},
    {"goodput_bits_post_ho", &UserStats::goodputBitsPostHo},
    {"pre_ho_slots", &UserStats::preHoSlots},
    {"post_ho_slots", &UserStats::postHoSlots},
};

/** See kUserStatsCounters. */
inline constexpr UserStatsField<RunningStats> kUserStatsMoments[] = {
    {"latency_slots", &UserStats::latencySlots},
    {"queue_wait_slots", &UserStats::queueWaitSlots},
    {"sinr_db", &UserStats::sinrDb},
};

/** See kUserStatsCounters. */
inline constexpr UserStatsField<Histogram> kUserStatsHists[] = {
    {"latency_hist", &UserStats::latencyHist},
    {"attempts_hist", &UserStats::attemptsHist},
    {"rate_hist", &UserStats::rateHist},
    {"queue_wait_hist", &UserStats::queueWaitHist},
    {"e2e_latency_hist", &UserStats::e2eLatencyHist},
};

/** Result of NetworkSim::run(). */
struct NetworkResult {
    /** The network description the run executed. */
    NetworkSpec spec;
    /** Slots simulated. */
    std::uint64_t slots = 0;
    /** Cells in the deployment (1 for single-cell runs). */
    int cells = 1;
    /** Per-user statistics, indexed by user. */
    std::vector<UserStats> users;
    /** Exact merge of all users (user == -1). */
    UserStats aggregate;
    /**
     * The finalized per-packet event trace (see mac::PacketTrace);
     * null unless the spec's trace flag was set.
     */
    std::shared_ptr<const mac::PacketTrace> trace;

    /** Cell goodput in Mb/s. */
    double
    aggregateGoodputMbps() const
    {
        return aggregate.goodputMbps(slots, spec.frameIntervalUs);
    }
};

/**
 * The multi-user network simulator. Construction derives the shared
 * analytic SoftPHY tables (and, for multi-cell specs, realizes the
 * deployment geometry); run() executes the slotted timeline and is
 * deterministic for any thread count (and repeatable: every run
 * rebuilds the per-user sessions from the spec's master seed).
 *
 * A 1x1 topology runs the original single-cell engine: independent
 * links, every user transmitting every slot. A larger grid runs
 * the multi-cell engine (see sim/multicell_sim.hh): pathloss +
 * shadowing link budgets from sim::Topology, per-slot SINR over
 * same-slot interfering cells, per-user traffic queues and a
 * per-cell scheduler arbitrating the slot.
 */
class NetworkSim
{
  public:
    /**
     * Build a simulator for @p spec. When the fidelity mode is
     * analytic/auto, the calibration table comes from
     * spec.calibrationFile if set, else from a fresh offline sweep
     * (calibrationBuildSpec(spec); deterministic but not free --
     * share one table across sims via the two-argument constructor
     * when comparing modes).
     */
    explicit NetworkSim(const NetworkSpec &spec);

    /** Build with an injected (pre-built or shared) table. */
    NetworkSim(const NetworkSpec &spec,
               std::shared_ptr<const softphy::CalibrationTable> table);

    /** The network description in use. */
    const NetworkSpec &spec() const { return spec_; }

    /**
     * The calibration table backing the analytic path. Non-null
     * whenever the fidelity mode is analytic/auto; in full mode it
     * is null unless one was injected (a full-fidelity run never
     * consults it either way).
     */
    const softphy::CalibrationTable *calibration() const
    {
        return calib.get();
    }

    /**
     * The offline sweep NetworkSim would run to calibrate @p spec:
     * the link template's receiver/payload against a flat channel
     * across the SNR range its users can reach (mean SNR +- spread
     * plus fading excursions).
     */
    static softphy::CalibrationTable::BuildSpec
    calibrationBuildSpec(const NetworkSpec &spec);

    /**
     * The table @p spec's fidelity mode runs on: loaded from
     * spec.calibrationFile if set, else built from
     * calibrationBuildSpec(spec). Null in full mode, which consults
     * none. The table depends on the link template and topology
     * shape, never the seed, so one is exact for every replication.
     */
    static std::shared_ptr<const softphy::CalibrationTable>
    calibrationFor(const NetworkSpec &spec);

    /**
     * The realized deployment geometry; non-null only for
     * multi-cell specs (spec().multicell()).
     */
    const Topology *topology() const { return topo.get(); }

    /**
     * Simulate @p slots frame slots for every user. A traced run
     * (NetworkSpec::trace) of mac::PacketTrace::kMaxSlots slots or
     * more is fatal, before the run allocates anything.
     * @param threads Worker threads (0 = hardware concurrency,
     *                clamped to the user count).
     */
    NetworkResult run(std::uint64_t slots, int threads = 0);

  private:
    struct UserSeeds {
        double snrOffsetDb;
        std::uint64_t channelSeed;
        std::uint64_t payloadSeed;
        std::uint64_t arrivalStream;
        /** Analytic-path success draws ((seed, user, slot)-keyed). */
        std::uint64_t fidelityStream;
    };

    UserSeeds userSeeds(int user) const;

    /** Load or measure the table when the policy needs one. */
    void ensureCalibration();

    NetworkSpec spec_;
    softphy::BerEstimator estimator;
    std::shared_ptr<const softphy::CalibrationTable> calib;
    std::unique_ptr<Topology> topo; // multi-cell specs only
    // Immutable derived state the SoA multi-cell engine reuses
    // across run() calls (fader banks, stream keys, flattened
    // calibration). Opaque; see sim/multicell_sim.hh.
    std::shared_ptr<McSoaCache> soaCache;
};

} // namespace sim
} // namespace wilis

#endif // WILIS_SIM_NETWORK_SIM_HH
