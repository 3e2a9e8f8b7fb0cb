/**
 * @file
 * The unified scenario description consumed by every execution style
 * in WiLIS: the batched functional testbench (sim::Testbench), the
 * cycle-counted latency-insensitive pipeline (sim::LiTransceiver) and
 * the parallel packet sweep (sim::sweepPackets, which also runs the
 * cells of a sim::ScenarioGrid).
 *
 * A ScenarioSpec is one declarative value naming the 802.11a/g rate,
 * the receiver configuration (decoder slot, demapper quantization),
 * the channel registry entry with its parameters, the payload
 * geometry and seeds, and the LI clock-domain assignment. Because
 * both execution paths build from the same spec, bit-exactness
 * across them is a property of the spec, not of call-site
 * discipline -- the WiLIS "same blocks, both worlds" claim lifted to
 * whole scenarios.
 *
 * Specs round-trip through li::Config ("k=v,k=v" strings or config
 * files), and built-in presets name such strings ("rayleigh-fading"
 * is "channel=rayleigh,snr_db=10,..."), so scenario selection is a
 * configuration change, not a source change (the paper's
 * Plug-n-Play property at scenario granularity). Each config key is
 * declared once, in the key lists of scenario.cc, which drive
 * parsing, serialization and validation; docs/SCENARIOS.md is the
 * user-facing reference.
 */

#ifndef WILIS_SIM_SCENARIO_HH
#define WILIS_SIM_SCENARIO_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "li/config.hh"
#include "mac/arq.hh"
#include "mac/scheduler.hh"
#include "mac/traffic.hh"
#include "phy/ofdm_rx.hh"
#include "sim/link_fidelity.hh"
#include "sim/mobility.hh"
#include "sim/topology.hh"

namespace wilis {
namespace sim {

/** Clock frequencies of the three LI partitions (section 3). */
struct ScenarioClocks {
    /** Baseband pipeline clock in MHz (section 3: 35). */
    double basebandMhz = 35.0;
    /** Decoder / BER-unit clock in MHz (section 3: 60). */
    double decoderMhz = 60.0;
    /** Software-channel partition clock in MHz. */
    double hostMhz = 100.0;
};

/** One fully specified simulation scenario. */
struct ScenarioSpec {
    /** Human-readable label (grid sweeps derive cell labels). */
    std::string name = "default";
    /** 802.11a/g rate index (0..7). */
    phy::RateIndex rate = 4;
    /** Receiver configuration (decoder slot, demapper widths...). */
    phy::OfdmReceiver::Config rx;
    /** Channel registry name ("awgn", "rayleigh", ...). */
    std::string channel = "awgn";
    /** Channel parameters (snr_db, doppler_hz, seed...). */
    li::Config channelCfg;
    /** Payload length in bits. */
    size_t payloadBits = 1000;
    /** Seed for random payload generation. */
    std::uint64_t payloadSeed = 0x5EED;
    /** LI clock-domain assignment. */
    ScenarioClocks clocks;

    // ---- fluent copies for grid expansion ------------------------
    /** Copy with the rate replaced. */
    ScenarioSpec withRate(phy::RateIndex r) const;
    /** Copy with the channel registry name replaced. */
    ScenarioSpec withChannel(const std::string &name) const;
    /** Copy with the channel "snr_db" parameter replaced. */
    ScenarioSpec withSnrDb(double snr_db) const;
    /** Copy with the payload length replaced. */
    ScenarioSpec withPayloadBits(size_t bits) const;
    /** Copy with the channel "seed" parameter replaced. */
    ScenarioSpec withChannelSeed(std::uint64_t seed) const;

    /** SNR currently configured (channelCfg "snr_db", default 10). */
    double snrDb() const;

    /** Compact cell label, e.g. "r4/awgn/snr10/p1000". */
    std::string label() const;

    /**
     * Overlay the keys present in @p cfg onto this spec (absent
     * keys keep their current values); the keys are those of
     * scenarioSpecKeys(). "channel.<k>" and "decoder.<k>" set <k> in
     * the channel / decoder sub-configs; "snr_db" and "seed" are
     * forwarded to the channel as the common shorthand. A key that
     * neither this spec nor the selected channel or decoder declares,
     * or an out-of-range value, is fatal, naming the key.
     */
    void applyConfig(const li::Config &cfg);

    /** Parse a spec from defaults + applyConfig(cfg). */
    static ScenarioSpec fromConfig(const li::Config &cfg);

    /** Serialize to the fromConfig() key set (round-trips). */
    li::Config toConfig() const;
};

/**
 * Instantiate a built-in scenario preset ("awgn-mid",
 * "rayleigh-fading", ...); fatal, listing the known names, if
 * unknown. A preset is a named spec argument: a row of scenario.cc
 * applied through applyConfig(). The returned spec is freely
 * mutable.
 */
ScenarioSpec scenarioPreset(const std::string &name);

/** True if @p name is a built-in scenario preset. */
bool hasScenarioPreset(const std::string &name);

/** Sorted names of the built-in scenario presets. */
std::vector<std::string> scenarioPresetNames();

/**
 * Every exact key ScenarioSpec::applyConfig() accepts, sorted
 * (prefixed families like "channel.<k>" / "decoder.<k>" appear as
 * the literal prefix "channel." / "decoder."). The authoritative
 * list docs/SCENARIOS.md is cross-checked against, so the reference
 * cannot silently drift from the parser.
 */
std::vector<std::string> scenarioSpecKeys();

/** Which network engine a NetworkSpec key configures. */
enum class KeyScope {
    /** Both engines. */
    Any,
    /** The single-cell timeline; fatal alongside cells=RxC. */
    SingleCell,
    /** The multi-cell engine; fatal without cells=RxC. */
    MultiCell,
};

/**
 * Checkpoint/resume policy of a multi-cell run (see
 * src/sim/campaign.hh and common/snapshot.hh). Snapshots capture
 * the full mutable simulation state at a slot boundary; resuming
 * from one continues the run bit-identically to an uninterrupted
 * execution, for any thread count and either multi-cell engine.
 */
struct CheckpointSpec {
    /** Snapshot file path; empty disables checkpointing. */
    std::string file;
    /**
     * Save a snapshot every this many slots (at slot boundaries
     * past the start slot). 0 writes no periodic snapshots --
     * useful for a pure resume run.
     */
    std::uint64_t everySlots = 0;
    /** Resume from `file` (which must exist) instead of slot 0. */
    bool resume = false;

    /** True when any checkpoint behavior is requested. */
    bool enabled() const { return !file.empty(); }
};

/** Traffic arrival model of the single-cell engine. */
enum class ArrivalModel {
    /** Every user offers a frame every slot. */
    Full,
    /** Each user offers a frame with probability arrivalProb. */
    Bernoulli,
};

/** Config-file names of ArrivalModel. */
inline constexpr auto kArrivalModelNames = nameTable<ArrivalModel>(
    "arrival model",
    {{ArrivalModel::Full, "full"}, {ArrivalModel::Bernoulli, "bernoulli"}});

/**
 * Declarative description of a multi-user cell simulation: N
 * independent links sharing one slotted timeline, each built from
 * the embedded per-link ScenarioSpec template plus per-user derived
 * seeds, an AR(1) fading process, a SoftRate adapter and an ARQ
 * instance (see sim::NetworkSim). Like ScenarioSpec, a NetworkSpec
 * round-trips through li::Config and has its own preset family
 * ("cell-16", "cell-dense", ...), so whole network experiments are
 * a configuration change.
 */
struct NetworkSpec {
    /** Human-readable label. */
    std::string name = "cell";

    /**
     * Per-link template: rate is the initial SoftRate rate, channel
     * configuration supplies the mean SNR. The channel itself is
     * replaced per user by an AR(1) fading instance with a derived
     * seed, so applyConfig() rejects any other template channel key.
     */
    ScenarioSpec link;

    /** Number of users (independent links) in the cell. */
    int numUsers = 16;

    /** Traffic arrival model. */
    ArrivalModel arrivalModel = ArrivalModel::Full;

    /** Per-slot offer probability under the Bernoulli model. */
    double arrivalProb = 1.0;

    /** Maximum Doppler frequency of every link's fading, in Hz. */
    double dopplerHz = 30.0;

    /**
     * Half-width of the per-user mean SNR spread in dB: user u's
     * mean SNR is the template SNR plus a deterministic offset in
     * [-snrSpreadDb, +snrSpreadDb] (near/far users). 0 = uniform
     * cell.
     */
    double snrSpreadDb = 0.0;

    /** Slot duration in microseconds (AR(1) sampling interval). */
    double frameIntervalUs = 2000.0;

    /** ARQ discipline for every link. */
    mac::ArqMode arqMode = mac::ArqMode::SelectiveRepeat;
    /** ARQ window (selective repeat; stop-and-wait forces 1). */
    int arqWindow = 8;
    /** Attempts per frame before the ARQ drops it (0 = infinite). */
    int arqMaxAttempts = 8;
    /** Slots from transmission to ACK/NACK visibility. */
    std::uint64_t ackDelaySlots = 1;

    /** SoftRate PBER operating range (rate up below lo). */
    double pberLo = 1e-6;
    /** SoftRate PBER operating range (rate down above hi). */
    double pberHi = 1e-4;

    /** Master seed; all per-user streams are forked from it. */
    std::uint64_t seed = 0xCE11;

    /**
     * Independent replications of this spec a campaign runs (see
     * sim::runCampaignShard): rep 0 uses `seed` itself, rep r > 0 a
     * seed forked deterministically from it. 1 -- the default --
     * is a plain single run everywhere outside the campaign layer.
     */
    int reps = 1;

    /**
     * Per-link fidelity ladder (sim/link_fidelity.hh): "full" runs
     * the bit-exact PHY every slot, "analytic" draws frame outcomes
     * from a calibrated softphy::CalibrationTable, "auto" mixes the
     * two on a warm-up + periodic-refresh schedule.
     */
    FidelityPolicy fidelity;

    /**
     * Calibration table file for the analytic/auto modes. Empty
     * means sim::NetworkSim measures a table itself at construction
     * (deterministic, but costs a small offline sweep); non-empty
     * loads a committed table, written by
     * `wilis_cli --network <spec> --calibrate FILE`.
     */
    std::string calibrationFile;

    /**
     * Cell-grid deployment geometry. A 1x1 grid (the default) runs
     * the single-cell legacy timeline -- every user transmitting
     * every slot on an independent link, exactly the PR 2-4
     * trajectories. Any larger grid engages the multi-cell engine:
     * per-user 2-D placement, pathloss + shadowing link budgets,
     * per-slot SINR over the same-slot interfering cells, traffic
     * queues and a per-cell scheduler.
     */
    TopologySpec topology;

    /** Per-user traffic model (multi-cell engine). */
    mac::TrafficSpec traffic;

    /** Per-cell slot scheduler (multi-cell engine). */
    mac::CellScheduler::Config scheduler;

    /**
     * User mobility, handover and session churn (multi-cell engine;
     * see sim::MobilityRuntime). The default -- no trajectory model
     * and zero churn -- keeps every multi-cell run bit-identical to
     * the static simulator.
     */
    MobilitySpec mobility;

    /**
     * Record the per-packet event trace (mac::PacketTrace) into
     * NetworkResult::trace. Off by default: recording costs memory
     * proportional to the event count and a store per MAC event.
     * The trace contents are bit-identical for any thread count and
     * either multi-cell engine.
     */
    bool trace = false;

    /**
     * Snapshot checkpoint/resume of the run state (multi-cell
     * engine only; keys checkpoint_file / checkpoint_every /
     * checkpoint_resume). Disabled by default.
     */
    CheckpointSpec checkpoint;

    /** True if this spec engages the multi-cell engine. */
    bool multicell() const { return topology.multicell(); }

    /**
     * Overlay the keys present in @p cfg onto this spec; the keys
     * are those of networkSpecKeys(). "link.<k>" keys pass <k>
     * through to the link template, and the shorthands rate,
     * snr_db, payload_bits and decoder are forwarded to it
     * directly. An unknown key, an out-of-range
     * value or a key of the other engine (see KeyScope) is fatal,
     * naming the key.
     */
    void applyConfig(const li::Config &cfg);

    /** Parse a spec from defaults + applyConfig(cfg). */
    static NetworkSpec fromConfig(const li::Config &cfg);

    /** Serialize to the fromConfig() key set (round-trips). */
    li::Config toConfig() const;

    /**
     * Canonical description of everything that shapes the run's
     * slot-by-slot dynamics, used to match a snapshot to the spec
     * resuming it (common/snapshot.hh). Excludes the checkpoint
     * policy itself (a resume run may change where or how often it
     * saves) and the campaign rep count.
     */
    std::string fingerprint() const;
};

/** The NetworkSpec twin of scenarioPreset(). */
NetworkSpec networkPreset(const std::string &name);

/** True if @p name is a built-in network preset. */
bool hasNetworkPreset(const std::string &name);

/** Sorted names of the built-in network presets. */
std::vector<std::string> networkPresetNames();

/**
 * Every exact key NetworkSpec::applyConfig() accepts, or only those
 * of @p scope, sorted (the "link.<k>" pass-through family appears as
 * the literal prefix "link."). Same docs cross-check contract as
 * scenarioSpecKeys().
 */
std::vector<std::string>
networkSpecKeys(std::optional<KeyScope> scope = std::nullopt);

/**
 * The one spec-argument grammar every CLI shares (wilis_cli, scenario
 * tooling), as one flat config:
 *  - a preset name                      ("rayleigh-fading")
 *  - a preset with overrides appended   ("rayleigh-fading,snr_db=12")
 *  - an inline config string            ("rate=4,decoder=sova"),
 *    which may name its base via the preset= key
 *  - a config file path (no '=' anywhere, not a preset name)
 * A preset head becomes a preset= entry. @p has_preset is
 * hasScenarioPreset or hasNetworkPreset; fatal on unreadable files.
 */
li::Config specArgConfig(const std::string &arg,
                         bool (*has_preset)(const std::string &));

/**
 * A spec from a specArgConfig() config: its preset= base (fatal,
 * listing the known names, if unknown) or else @p defaults, then
 * applyConfig() of the other keys.
 */
ScenarioSpec scenarioSpecFromArgConfig(const li::Config &cfg,
                                       const ScenarioSpec &defaults =
                                           ScenarioSpec());

/** scenarioSpecFromArgConfig() of specArgConfig(@p arg). */
ScenarioSpec parseScenarioSpecArg(const std::string &arg,
                                  const ScenarioSpec &defaults =
                                      ScenarioSpec());

/** The NetworkSpec twin of parseScenarioSpecArg(). */
NetworkSpec parseNetworkSpecArg(const std::string &arg,
                                const NetworkSpec &defaults =
                                    NetworkSpec());

} // namespace sim
} // namespace wilis

#endif // WILIS_SIM_SCENARIO_HH
