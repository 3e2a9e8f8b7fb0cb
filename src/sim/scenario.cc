#include "sim/scenario.hh"

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>

#include "common/logging.hh"
#include "sim/testbench.hh"

namespace wilis {
namespace sim {

namespace {

/**
 * Reject config keys outside the documented set. Silent acceptance
 * of a misspelled key ("payload_bit=512") used to leave the default
 * in place and the experiment quietly wrong; a config typo is a
 * user error, so it is fatal with the offending key named. Keys
 * with an allowed prefix ("channel.", "link.", ...) pass through
 * untouched -- their sub-config owns their validation.
 */
void
rejectUnknownKeys(const li::Config &cfg, const char *spec_name,
                  const std::set<std::string> &known,
                  const std::vector<std::string> &prefixes)
{
    for (const auto &kv : cfg.entries()) {
        const std::string &key = kv.first;
        if (known.count(key))
            continue;
        bool prefixed = false;
        for (const std::string &p : prefixes) {
            if (key.rfind(p, 0) == 0 && key.size() > p.size()) {
                prefixed = true;
                break;
            }
        }
        if (prefixed)
            continue;
        std::string valid;
        for (const std::string &k : known) {
            if (!valid.empty())
                valid += ", ";
            valid += k;
        }
        wilis_fatal("unknown %s key '%s' (valid keys: %s)",
                    spec_name, key.c_str(), valid.c_str());
    }
}

/**
 * The single source of truth for each spec's accepted key set:
 * applyConfig() validates against it and the public
 * scenarioSpecKeys() / networkSpecKeys() accessors expose it (the
 * docs/SCENARIOS.md cross-check test walks those), so the parser,
 * the validation and the reference cannot drift apart. Entries
 * ending in '.' are pass-through prefix families.
 */
const char *const kScenarioKeys[] = {
    "name",          "rate",         "channel",
    "payload_bits",  "payload_seed", "decoder",
    "soft_width",    "csi_weight",   "scrambler_seed",
    "baseband_mhz",  "decoder_mhz",  "host_mhz",
    "kernel_backend", "snr_db",      "seed",
    "channel.",      "decoder.",
};

const char *const kNetworkKeys[] = {
    "name",           "users",
    "arrival",        "arrival_prob",
    "doppler_hz",     "snr_spread_db",
    "frame_interval_us", "arq",
    "arq_window",     "arq_max_attempts",
    "ack_delay",      "pber_lo",
    "pber_hi",        "net_seed",
    "fidelity",       "fidelity_warmup",
    "fidelity_refresh_period", "fidelity_refresh_slots",
    "calibration_file", "reps",
    // multi-cell: checkpoint/resume
    "checkpoint_file", "checkpoint_every",
    "checkpoint_resume",
    // multi-cell: topology + propagation
    "cells",          "cell_spacing_m",
    "cell_radius_m",  "min_distance_m",
    "ref_snr_db",     "ref_distance_m",
    "pathloss_exp",   "shadow_sigma_db",
    // multi-cell: traffic + scheduling
    "traffic",        "traffic_load",
    "on_slots",       "off_slots",
    "queue_limit",    "scheduler",
    "pf_horizon",     "qdisc",
    "control_rate",   "contention",
    "trace",
    // multi-cell: mobility + churn
    "mobility",       "speed_mps",
    "handover_hyst_db", "handover_ttt_slots",
    "churn_rate",
    // link-template shorthands
    "rate",           "snr_db",
    "payload_bits",   "decoder",
    "kernel_backend", "link.",
};

/** A key table split into exact names and prefix families, in the
    shape rejectUnknownKeys() consumes. */
struct KeyTable {
    std::set<std::string> known;
    std::vector<std::string> prefixes;
    KeyTable(const char *const *begin, const char *const *end)
    {
        for (const char *const *k = begin; k != end; ++k) {
            const std::string key(*k);
            if (!key.empty() && key.back() == '.')
                prefixes.push_back(key);
            else
                known.insert(key);
        }
    }
};

std::vector<std::string>
sortedKeys(const char *const *begin, const char *const *end)
{
    std::vector<std::string> keys(begin, end);
    std::sort(keys.begin(), keys.end());
    return keys;
}

} // namespace

std::vector<std::string>
scenarioSpecKeys()
{
    return sortedKeys(std::begin(kScenarioKeys),
                      std::end(kScenarioKeys));
}

std::vector<std::string>
networkSpecKeys()
{
    return sortedKeys(std::begin(kNetworkKeys),
                      std::end(kNetworkKeys));
}

ScenarioSpec
ScenarioSpec::withRate(phy::RateIndex r) const
{
    ScenarioSpec s = *this;
    s.rate = r;
    return s;
}

ScenarioSpec
ScenarioSpec::withChannel(const std::string &name_) const
{
    ScenarioSpec s = *this;
    s.channel = name_;
    return s;
}

ScenarioSpec
ScenarioSpec::withSnrDb(double snr_db) const
{
    ScenarioSpec s = *this;
    s.channelCfg.set("snr_db", strprintf("%g", snr_db));
    return s;
}

ScenarioSpec
ScenarioSpec::withPayloadBits(size_t bits) const
{
    ScenarioSpec s = *this;
    s.payloadBits = bits;
    return s;
}

ScenarioSpec
ScenarioSpec::withKernelBackend(const std::string &backend) const
{
    ScenarioSpec s = *this;
    s.kernel.backend = backend;
    return s;
}

ScenarioSpec
ScenarioSpec::withChannelSeed(std::uint64_t seed) const
{
    ScenarioSpec s = *this;
    s.channelCfg.set("seed",
                     strprintf("%llu",
                               static_cast<unsigned long long>(seed)));
    return s;
}

double
ScenarioSpec::snrDb() const
{
    return channelCfg.getDouble("snr_db", 10.0);
}

std::string
ScenarioSpec::label() const
{
    return strprintf("r%d/%s/snr%g/p%zu", rate, channel.c_str(),
                     snrDb(), payloadBits);
}

void
ScenarioSpec::applyConfig(const li::Config &cfg)
{
    static const KeyTable keys(std::begin(kScenarioKeys),
                               std::end(kScenarioKeys));
    rejectUnknownKeys(cfg, "ScenarioSpec", keys.known,
                      keys.prefixes);

    name = cfg.getString("name", name);
    rate = static_cast<phy::RateIndex>(cfg.getInt("rate", rate));
    wilis_assert(rate >= 0 && rate < phy::kNumRates,
                 "rate index %d out of range", rate);
    channel = cfg.getString("channel", channel);
    payloadBits = static_cast<size_t>(
        cfg.getInt("payload_bits", static_cast<long>(payloadBits)));
    payloadSeed = cfg.getUint64("payload_seed", payloadSeed);
    rx.decoder = cfg.getString("decoder", rx.decoder);
    rx.demapper.softWidth = static_cast<int>(
        cfg.getInt("soft_width", rx.demapper.softWidth));
    rx.applyCsiWeight = cfg.getBool("csi_weight", rx.applyCsiWeight);
    rx.scramblerSeed = static_cast<std::uint8_t>(
        cfg.getInt("scrambler_seed", rx.scramblerSeed));
    clocks.basebandMhz =
        cfg.getDouble("baseband_mhz", clocks.basebandMhz);
    clocks.decoderMhz =
        cfg.getDouble("decoder_mhz", clocks.decoderMhz);
    clocks.hostMhz = cfg.getDouble("host_mhz", clocks.hostMhz);
    kernel.backend = cfg.getString("kernel_backend", kernel.backend);

    for (const auto &kv : cfg.entries()) {
        const std::string &key = kv.first;
        if (key.rfind("channel.", 0) == 0)
            channelCfg.set(key.substr(8), kv.second);
        else if (key.rfind("decoder.", 0) == 0)
            rx.decoderCfg.set(key.substr(8), kv.second);
        else if (key == "snr_db" || key == "seed")
            channelCfg.set(key, kv.second);
    }
}

ScenarioSpec
ScenarioSpec::fromConfig(const li::Config &cfg)
{
    ScenarioSpec s;
    s.applyConfig(cfg);
    return s;
}

li::Config
ScenarioSpec::toConfig() const
{
    li::Config cfg;
    cfg.set("name", name);
    cfg.set("rate", strprintf("%d", rate));
    cfg.set("channel", channel);
    cfg.set("payload_bits", strprintf("%zu", payloadBits));
    cfg.set("payload_seed",
            strprintf("%llu",
                      static_cast<unsigned long long>(payloadSeed)));
    cfg.set("decoder", rx.decoder);
    cfg.set("soft_width", strprintf("%d", rx.demapper.softWidth));
    cfg.set("csi_weight", rx.applyCsiWeight ? "true" : "false");
    cfg.set("scrambler_seed", strprintf("%d", rx.scramblerSeed));
    cfg.set("baseband_mhz", strprintf("%g", clocks.basebandMhz));
    cfg.set("decoder_mhz", strprintf("%g", clocks.decoderMhz));
    cfg.set("host_mhz", strprintf("%g", clocks.hostMhz));
    cfg.set("kernel_backend", kernel.backend);
    for (const auto &kv : channelCfg.entries())
        cfg.set("channel." + kv.first, kv.second);
    for (const auto &kv : rx.decoderCfg.entries())
        cfg.set("decoder." + kv.first, kv.second);
    return cfg;
}

// ------------------------------------------------------ presets

namespace {

/**
 * Shared machinery of the scenario and network preset registries:
 * name -> factory with duplicate detection and a known-names fatal
 * on unknown lookups.
 */
template <typename Spec>
class PresetRegistry
{
  public:
    using Factory = Spec (*)();

    explicit PresetRegistry(const char *kind_) : kind(kind_) {}

    void
    add(const std::string &name, Factory factory)
    {
        wilis_assert(!presets.count(name),
                     "duplicate %s preset '%s'", kind, name.c_str());
        presets[name] = factory;
    }

    Spec
    create(const std::string &name) const
    {
        auto it = presets.find(name);
        if (it == presets.end()) {
            std::string known;
            for (const auto &kv : presets) {
                if (!known.empty())
                    known += ", ";
                known += kv.first;
            }
            wilis_fatal("no %s preset '%s' (known: %s)", kind,
                        name.c_str(), known.c_str());
        }
        return it->second();
    }

    bool
    has(const std::string &name) const
    {
        return presets.count(name) > 0;
    }

    std::vector<std::string>
    names() const
    {
        std::vector<std::string> out;
        for (const auto &kv : presets)
            out.push_back(kv.first);
        return out;
    }

  private:
    const char *kind;
    std::map<std::string, Factory> presets;
};

PresetRegistry<ScenarioSpec> &
scenarioRegistry()
{
    static PresetRegistry<ScenarioSpec> reg = [] {
        PresetRegistry<ScenarioSpec> r("scenario");
        r.add("awgn-mid", [] {
            ScenarioSpec s;
            s.name = "awgn-mid";
            s.channel = "awgn";
            s.channelCfg = li::Config::fromString("snr_db=10");
            return s;
        });
        r.add("awgn-clean", [] {
            ScenarioSpec s;
            s.name = "awgn-clean";
            s.channel = "awgn";
            s.channelCfg = li::Config::fromString("snr_db=30");
            return s;
        });
        r.add("rayleigh-fading", [] {
            // The Figure 7 SoftRate setting: 20 Hz fading, 10 dB
            // AWGN.
            ScenarioSpec s;
            s.name = "rayleigh-fading";
            s.channel = "rayleigh";
            s.channelCfg =
                li::Config::fromString("snr_db=10,doppler_hz=20");
            return s;
        });
        r.add("multipath-selective", [] {
            ScenarioSpec s;
            s.name = "multipath-selective";
            s.channel = "multipath";
            s.channelCfg = li::Config::fromString(
                "snr_db=15,num_taps=4,delay_spread=3");
            s.rx.applyCsiWeight = true;
            return s;
        });
        r.add("interference-tone", [] {
            ScenarioSpec s;
            s.name = "interference-tone";
            s.channel = "interference";
            s.channelCfg =
                li::Config::fromString("snr_db=15,sir_db=10");
            return s;
        });
        return r;
    }();
    return reg;
}

} // namespace

void
registerScenarioPreset(const std::string &name,
                       ScenarioSpec (*factory)())
{
    scenarioRegistry().add(name, factory);
}

ScenarioSpec
scenarioPreset(const std::string &name)
{
    return scenarioRegistry().create(name);
}

bool
hasScenarioPreset(const std::string &name)
{
    return scenarioRegistry().has(name);
}

std::vector<std::string>
scenarioPresetNames()
{
    return scenarioRegistry().names();
}

// ------------------------------------------------ network specs

void
NetworkSpec::applyConfig(const li::Config &cfg)
{
    static const KeyTable keys(std::begin(kNetworkKeys),
                               std::end(kNetworkKeys));
    rejectUnknownKeys(cfg, "NetworkSpec", keys.known,
                      keys.prefixes);

    name = cfg.getString("name", name);
    numUsers =
        static_cast<int>(cfg.getInt("users", numUsers));
    wilis_assert(numUsers >= 1, "network needs >= 1 user, got %d",
                 numUsers);
    arrivalModel = cfg.getString("arrival", arrivalModel);
    wilis_assert(arrivalModel == "full" ||
                     arrivalModel == "bernoulli",
                 "unknown arrival model '%s' (full|bernoulli)",
                 arrivalModel.c_str());
    arrivalProb = cfg.getDouble("arrival_prob", arrivalProb);
    dopplerHz = cfg.getDouble("doppler_hz", dopplerHz);
    snrSpreadDb = cfg.getDouble("snr_spread_db", snrSpreadDb);
    frameIntervalUs =
        cfg.getDouble("frame_interval_us", frameIntervalUs);
    if (cfg.has("arq"))
        arqMode = mac::arqModeFromName(cfg.getString("arq"));
    arqWindow = static_cast<int>(cfg.getInt("arq_window", arqWindow));
    arqMaxAttempts = static_cast<int>(
        cfg.getInt("arq_max_attempts", arqMaxAttempts));
    ackDelaySlots = cfg.getUint64("ack_delay", ackDelaySlots);
    pberLo = cfg.getDouble("pber_lo", pberLo);
    pberHi = cfg.getDouble("pber_hi", pberHi);
    seed = cfg.getUint64("net_seed", seed);
    if (cfg.has("fidelity"))
        fidelity.mode =
            fidelityModeFromName(cfg.getString("fidelity"));
    fidelity.warmupSlots =
        cfg.getUint64("fidelity_warmup", fidelity.warmupSlots);
    fidelity.refreshPeriod = cfg.getUint64("fidelity_refresh_period",
                                           fidelity.refreshPeriod);
    fidelity.refreshSlots = cfg.getUint64("fidelity_refresh_slots",
                                          fidelity.refreshSlots);
    calibrationFile =
        cfg.getString("calibration_file", calibrationFile);
    reps = static_cast<int>(cfg.getInt("reps", reps));
    wilis_assert(reps >= 1, "reps must be >= 1, got %d", reps);

    checkpoint.file =
        cfg.getString("checkpoint_file", checkpoint.file);
    checkpoint.everySlots =
        cfg.getUint64("checkpoint_every", checkpoint.everySlots);
    checkpoint.resume =
        cfg.getBool("checkpoint_resume", checkpoint.resume);
    wilis_assert(checkpoint.enabled() ||
                     (checkpoint.everySlots == 0 &&
                      !checkpoint.resume),
                 "checkpoint_every/checkpoint_resume need "
                 "checkpoint_file");

    if (cfg.has("cells")) {
        const std::string grid = cfg.getString("cells");
        int rows = 0;
        int cols = 0;
        char tail = '\0';
        if (std::sscanf(grid.c_str(), "%dx%d%c", &rows, &cols,
                        &tail) != 2 ||
            rows < 1 || cols < 1)
            wilis_fatal("malformed cells '%s' (expected RxC, "
                        "e.g. cells=3x3)",
                        grid.c_str());
        topology.rows = rows;
        topology.cols = cols;
    }
    topology.cellSpacingM =
        cfg.getDouble("cell_spacing_m", topology.cellSpacingM);
    topology.cellRadiusM =
        cfg.getDouble("cell_radius_m", topology.cellRadiusM);
    topology.minDistanceM =
        cfg.getDouble("min_distance_m", topology.minDistanceM);
    topology.pathloss =
        channel::PathlossModel::specFromConfig(cfg,
                                               topology.pathloss);

    if (cfg.has("traffic"))
        traffic.kind = mac::trafficKindFromName(
            cfg.getString("traffic"));
    traffic.load = cfg.getDouble("traffic_load", traffic.load);
    traffic.onSlots = cfg.getDouble("on_slots", traffic.onSlots);
    traffic.offSlots = cfg.getDouble("off_slots", traffic.offSlots);
    traffic.queueLimit = static_cast<int>(
        cfg.getInt("queue_limit", traffic.queueLimit));

    if (cfg.has("qdisc"))
        traffic.qdisc =
            mac::qdiscKindFromName(cfg.getString("qdisc"));
    traffic.controlRate =
        cfg.getDouble("control_rate", traffic.controlRate);
    wilis_assert(traffic.controlRate >= 0.0,
                 "control_rate must be >= 0, got %g",
                 traffic.controlRate);

    if (cfg.has("scheduler"))
        scheduler.kind = mac::schedulerKindFromName(
            cfg.getString("scheduler"));
    scheduler.pfHorizonSlots =
        cfg.getDouble("pf_horizon", scheduler.pfHorizonSlots);
    if (cfg.has("contention"))
        scheduler.contention = mac::contentionModeFromName(
            cfg.getString("contention"));

    if (cfg.has("mobility"))
        mobility.model =
            mobilityModelFromName(cfg.getString("mobility"));
    mobility.speedMps =
        cfg.getDouble("speed_mps", mobility.speedMps);
    wilis_assert(mobility.speedMps > 0.0,
                 "speed_mps must be > 0, got %g",
                 mobility.speedMps);
    mobility.handoverHystDb =
        cfg.getDouble("handover_hyst_db", mobility.handoverHystDb);
    wilis_assert(mobility.handoverHystDb >= 0.0,
                 "handover_hyst_db must be >= 0, got %g",
                 mobility.handoverHystDb);
    mobility.handoverTttSlots = cfg.getUint64(
        "handover_ttt_slots", mobility.handoverTttSlots);
    mobility.churnRate =
        cfg.getDouble("churn_rate", mobility.churnRate);
    wilis_assert(mobility.churnRate >= 0.0 &&
                     mobility.churnRate < 1.0,
                 "churn_rate must be in [0,1), got %g",
                 mobility.churnRate);

    trace = cfg.getBool("trace", trace);

    // Pass-throughs to the link template: explicit "link.<k>" keys
    // plus the common shorthands.
    li::Config link_cfg;
    for (const auto &kv : cfg.entries()) {
        if (kv.first.rfind("link.", 0) == 0)
            link_cfg.set(kv.first.substr(5), kv.second);
        else if (kv.first == "rate" || kv.first == "snr_db" ||
                 kv.first == "payload_bits" ||
                 kv.first == "decoder" ||
                 kv.first == "kernel_backend")
            link_cfg.set(kv.first, kv.second);
    }
    link.applyConfig(link_cfg);

    // The multi-cell engine derives per-user SNRs from the
    // topology and offers traffic through the traffic model, so
    // the single-cell knobs below have no effect there. Accepting
    // them alongside cells=RxC would be exactly the
    // silently-wrong-experiment failure the strict key check
    // exists to prevent.
    if (multicell()) {
        for (const char *key :
             {"arrival", "arrival_prob", "snr_spread_db",
              "snr_db"}) {
            if (cfg.has(key))
                wilis_fatal("single-cell key '%s' has no effect in "
                            "multi-cell mode (cells=%dx%d); use the "
                            "traffic/topology keys instead",
                            key, topology.rows, topology.cols);
        }
    } else {
        // ...and symmetrically: the topology/traffic/scheduler
        // keys only drive the multi-cell engine, so accepting them
        // without a grid would run the single-cell engine with the
        // experiment quietly missing its traffic model.
        for (const char *key :
             {"cell_spacing_m", "cell_radius_m", "min_distance_m",
              "ref_snr_db", "ref_distance_m", "pathloss_exp",
              "shadow_sigma_db", "traffic", "traffic_load",
              "on_slots", "off_slots", "queue_limit", "scheduler",
              "pf_horizon", "qdisc", "control_rate", "contention",
              "mobility", "speed_mps",
              "handover_hyst_db", "handover_ttt_slots",
              "churn_rate", "checkpoint_file", "checkpoint_every",
              "checkpoint_resume"}) {
            if (cfg.has(key))
                wilis_fatal("multi-cell key '%s' has no effect "
                            "without a cell grid; add cells=RxC "
                            "(e.g. cells=3x3)",
                            key);
        }
    }
}

NetworkSpec
NetworkSpec::fromConfig(const li::Config &cfg)
{
    NetworkSpec s;
    s.applyConfig(cfg);
    return s;
}

li::Config
NetworkSpec::toConfig() const
{
    li::Config cfg;
    cfg.set("name", name);
    cfg.set("users", strprintf("%d", numUsers));
    // The single-cell traffic/SNR knobs are meaningless (and
    // rejected) alongside a multi-cell grid, so a multi-cell spec
    // round-trips without them.
    if (!multicell()) {
        cfg.set("arrival", arrivalModel);
        cfg.set("arrival_prob", strprintf("%g", arrivalProb));
        cfg.set("snr_spread_db", strprintf("%g", snrSpreadDb));
    }
    cfg.set("doppler_hz", strprintf("%g", dopplerHz));
    cfg.set("frame_interval_us", strprintf("%g", frameIntervalUs));
    cfg.set("arq", mac::arqModeName(arqMode));
    cfg.set("arq_window", strprintf("%d", arqWindow));
    cfg.set("arq_max_attempts", strprintf("%d", arqMaxAttempts));
    cfg.set("ack_delay",
            strprintf("%llu",
                      static_cast<unsigned long long>(ackDelaySlots)));
    cfg.set("pber_lo", strprintf("%g", pberLo));
    cfg.set("pber_hi", strprintf("%g", pberHi));
    cfg.set("net_seed",
            strprintf("%llu", static_cast<unsigned long long>(seed)));
    cfg.set("fidelity", fidelityModeName(fidelity.mode));
    cfg.set("fidelity_warmup",
            strprintf("%llu", static_cast<unsigned long long>(
                                  fidelity.warmupSlots)));
    cfg.set("fidelity_refresh_period",
            strprintf("%llu", static_cast<unsigned long long>(
                                  fidelity.refreshPeriod)));
    cfg.set("fidelity_refresh_slots",
            strprintf("%llu", static_cast<unsigned long long>(
                                  fidelity.refreshSlots)));
    if (!calibrationFile.empty())
        cfg.set("calibration_file", calibrationFile);
    cfg.set("reps", strprintf("%d", reps));
    // The multi-cell keys are rejected by applyConfig() on
    // single-cell specs (and vice versa for the single-cell knobs
    // above), so each engine's spec round-trips with exactly its
    // own key set.
    if (multicell()) {
        cfg.set("cells",
                strprintf("%dx%d", topology.rows, topology.cols));
        cfg.set("cell_spacing_m",
                strprintf("%g", topology.cellSpacingM));
        cfg.set("cell_radius_m",
                strprintf("%g", topology.cellRadiusM));
        cfg.set("min_distance_m",
                strprintf("%g", topology.minDistanceM));
        cfg.set("ref_snr_db",
                strprintf("%g", topology.pathloss.refSnrDb));
        cfg.set("ref_distance_m",
                strprintf("%g", topology.pathloss.refDistanceM));
        cfg.set("pathloss_exp",
                strprintf("%g", topology.pathloss.exponent));
        cfg.set("shadow_sigma_db",
                strprintf("%g", topology.pathloss.shadowSigmaDb));
        cfg.set("traffic", mac::trafficKindName(traffic.kind));
        cfg.set("traffic_load", strprintf("%g", traffic.load));
        cfg.set("on_slots", strprintf("%g", traffic.onSlots));
        cfg.set("off_slots", strprintf("%g", traffic.offSlots));
        cfg.set("queue_limit", strprintf("%d", traffic.queueLimit));
        cfg.set("scheduler",
                mac::schedulerKindName(scheduler.kind));
        cfg.set("pf_horizon",
                strprintf("%g", scheduler.pfHorizonSlots));
        cfg.set("qdisc", mac::qdiscKindName(traffic.qdisc));
        cfg.set("control_rate",
                strprintf("%g", traffic.controlRate));
        cfg.set("contention",
                mac::contentionModeName(scheduler.contention));
        cfg.set("mobility", mobilityModelName(mobility.model));
        cfg.set("speed_mps", strprintf("%g", mobility.speedMps));
        cfg.set("handover_hyst_db",
                strprintf("%g", mobility.handoverHystDb));
        cfg.set("handover_ttt_slots",
                strprintf("%llu",
                          static_cast<unsigned long long>(
                              mobility.handoverTttSlots)));
        cfg.set("churn_rate",
                strprintf("%g", mobility.churnRate));
        if (checkpoint.enabled()) {
            cfg.set("checkpoint_file", checkpoint.file);
            if (checkpoint.everySlots)
                cfg.set("checkpoint_every",
                        strprintf("%llu",
                                  static_cast<unsigned long long>(
                                      checkpoint.everySlots)));
            if (checkpoint.resume)
                cfg.set("checkpoint_resume", "true");
        }
    }
    cfg.set("trace", trace ? "true" : "false");
    const li::Config link_cfg = link.toConfig();
    for (const auto &kv : link_cfg.entries())
        cfg.set("link." + kv.first, kv.second);
    return cfg;
}

std::string
NetworkSpec::fingerprint() const
{
    // The canonical sorted key=value rendering of toConfig(), minus
    // the keys that do not shape the slot-by-slot dynamics (see the
    // header). li::Config::entries() iterates a sorted map, so the
    // string is independent of how the spec was built.
    std::string out;
    const li::Config cfg = toConfig();
    for (const auto &kv : cfg.entries()) {
        const std::string &key = kv.first;
        if (key == "reps" || key.rfind("checkpoint_", 0) == 0)
            continue;
        if (!out.empty())
            out += ',';
        out += key;
        out += '=';
        out += kv.second;
    }
    return out;
}

namespace {

/** Shared base of the built-in cell presets. */
NetworkSpec
baseCell()
{
    NetworkSpec s;
    s.link.rate = 2; // QPSK 1/2 start, room to adapt both ways
    s.link.payloadBits = 1000;
    s.link.channelCfg = li::Config::fromString("snr_db=14");
    s.snrSpreadDb = 6.0;
    return s;
}

PresetRegistry<NetworkSpec> &
networkRegistry()
{
    static PresetRegistry<NetworkSpec> reg = [] {
        PresetRegistry<NetworkSpec> r("network");
        r.add("cell-16", [] {
            NetworkSpec s = baseCell();
            s.name = "cell-16";
            return s;
        });
        r.add("cell-dense", [] {
            // Many bursty users contending for the same timeline.
            NetworkSpec s = baseCell();
            s.name = "cell-dense";
            s.numUsers = 64;
            s.arrivalModel = "bernoulli";
            s.arrivalProb = 0.5;
            return s;
        });
        r.add("cell-mobile", [] {
            // Fast fading: adaptation and ARQ chase a 120 Hz
            // channel.
            NetworkSpec s = baseCell();
            s.name = "cell-mobile";
            s.dopplerHz = 120.0;
            return s;
        });
        r.add("cell-stopwait", [] {
            // Stop-and-wait baseline for the ARQ-mode comparison.
            NetworkSpec s = baseCell();
            s.name = "cell-stopwait";
            s.arqMode = mac::ArqMode::StopAndWait;
            s.ackDelaySlots = 2;
            return s;
        });
        r.add("cell-1k", [] {
            // The scale step: a thousand users on the calibrated
            // analytic fast path (full PHY here would cost ~1000x
            // a cell-16 run).
            NetworkSpec s = baseCell();
            s.name = "cell-1k";
            s.numUsers = 1024;
            s.fidelity.mode = FidelityMode::Analytic;
            return s;
        });
        r.add("dense-analytic", [] {
            // cell-dense's bursty contention at analytic cost.
            NetworkSpec s = baseCell();
            s.name = "dense-analytic";
            s.numUsers = 256;
            s.arrivalModel = "bernoulli";
            s.arrivalProb = 0.5;
            s.fidelity.mode = FidelityMode::Analytic;
            return s;
        });
        r.add("cell-auto", [] {
            // Mixed fidelity: bit-exact warm-up + periodic refresh,
            // analytic in between.
            NetworkSpec s = baseCell();
            s.name = "cell-auto";
            s.fidelity.mode = FidelityMode::Auto;
            return s;
        });
        r.add("grid-3x3", [] {
            // The multi-cell starter: 9 cells, 4 users each,
            // Poisson traffic through round-robin scheduling, SINR
            // from same-slot interfering cells, analytic fidelity
            // off the committed calibration table (run from the
            // repo root, or override calibration_file=).
            NetworkSpec s = baseCell();
            s.name = "grid-3x3";
            s.numUsers = 36;
            s.topology.rows = 3;
            s.topology.cols = 3;
            s.topology.cellSpacingM = 500.0;
            s.topology.cellRadiusM = 250.0;
            // 4 users/cell at 0.2 frames/slot offers ~0.8 of the
            // one-grant-per-slot cell capacity: busy but stable.
            s.traffic.kind = mac::TrafficKind::Poisson;
            s.traffic.load = 0.2;
            s.scheduler.kind = mac::SchedulerKind::RoundRobin;
            s.fidelity.mode = FidelityMode::Analytic;
            s.calibrationFile = "data/network_calibration.txt";
            return s;
        });
        r.add("dense-urban-10k", [] {
            // The deployment-scale step: a 10x10 urban grid with
            // 10k+ bursty users under proportional-fair
            // scheduling, only reachable on the calibrated
            // analytic rung (full PHY here would cost ~3 orders
            // of magnitude more per slot).
            NetworkSpec s = baseCell();
            s.name = "dense-urban-10k";
            s.numUsers = 10240;
            s.topology.rows = 10;
            s.topology.cols = 10;
            s.topology.cellSpacingM = 200.0;
            s.topology.cellRadiusM = 100.0;
            s.topology.minDistanceM = 10.0;
            s.topology.pathloss.refSnrDb = 44.0;
            s.topology.pathloss.exponent = 3.8;
            s.topology.pathloss.shadowSigmaDb = 8.0;
            s.dopplerHz = 10.0; // pedestrian mobility
            // ~102 users/cell with a 25% ON duty cycle at 0.04
            // frames/slot while ON offers ~1.02x each cell's
            // one-grant-per-slot capacity: bursts queue and drain,
            // the congested-but-live regime dense urban means.
            s.traffic.kind = mac::TrafficKind::OnOff;
            s.traffic.load = 0.04;
            s.traffic.onSlots = 24.0;
            s.traffic.offSlots = 72.0;
            s.scheduler.kind = mac::SchedulerKind::ProportionalFair;
            s.fidelity.mode = FidelityMode::Analytic;
            s.calibrationFile = "data/network_calibration.txt";
            return s;
        });
        r.add("urban-mobile", [] {
            // The mobility showcase: vehicular users random-
            // waypointing across a tight 4x4 grid with RSRP
            // handover and session churn. The cells are small and
            // the users fast (30 m/s over 150 m spacing) so a few
            // thousand 2 ms slots cover enough ground for real
            // handover activity; hysteresis 2 dB with ~one-epoch
            // time-to-trigger keeps ping-pong visible but bounded.
            NetworkSpec s = baseCell();
            s.name = "urban-mobile";
            s.numUsers = 96;
            s.topology.rows = 4;
            s.topology.cols = 4;
            s.topology.cellSpacingM = 150.0;
            s.topology.cellRadiusM = 75.0;
            s.topology.minDistanceM = 5.0;
            // Small cells need less mast power; 47 dB ref SNR puts
            // the near/far link-budget window exactly on the
            // committed calibration table's [-10, 28] dB span
            // (edge mean ~16 dB, so handover still trades real
            // throughput).
            s.topology.pathloss.refSnrDb = 47.0;
            s.dopplerHz = 60.0; // vehicular fading
            s.traffic.kind = mac::TrafficKind::Poisson;
            s.traffic.load = 0.15;
            s.scheduler.kind = mac::SchedulerKind::RoundRobin;
            s.fidelity.mode = FidelityMode::Analytic;
            s.calibrationFile = "data/network_calibration.txt";
            s.mobility.model = MobilityModel::Waypoint;
            s.mobility.speedMps = 30.0;
            s.mobility.handoverHystDb = 2.0;
            s.mobility.handoverTttSlots = 100;
            // Mean dwell 1/rate = 2000 slots: about one session
            // transition per user over a standard smoke run.
            s.mobility.churnRate = 0.0005;
            return s;
        });
        return r;
    }();
    return reg;
}

} // namespace

void
registerNetworkPreset(const std::string &name,
                      NetworkSpec (*factory)())
{
    networkRegistry().add(name, factory);
}

NetworkSpec
networkPreset(const std::string &name)
{
    return networkRegistry().create(name);
}

bool
hasNetworkPreset(const std::string &name)
{
    return networkRegistry().has(name);
}

std::vector<std::string>
networkPresetNames()
{
    return networkRegistry().names();
}

// ------------------------------------------------ spec arguments

namespace {

/**
 * The shared grammar of parseScenarioSpecArg() /
 * parseNetworkSpecArg(); Spec supplies applyConfig() and the two
 * preset hooks.
 */
template <typename Spec>
Spec
parseSpecArgImpl(const std::string &arg, const Spec &defaults,
                 bool (*has_preset)(const std::string &),
                 Spec (*make_preset)(const std::string &))
{
    // Apply @p cfg on top of the defaults, honoring its preset=
    // base if named (config files and inline strings share this).
    const auto apply = [&](const li::Config &cfg) {
        Spec s = defaults;
        if (cfg.has("preset")) {
            s = make_preset(cfg.getString("preset"));
            li::Config rest;
            for (const auto &kv : cfg.entries())
                if (kv.first != "preset")
                    rest.set(kv.first, kv.second);
            s.applyConfig(rest);
        } else {
            s.applyConfig(cfg);
        }
        return s;
    };

    const size_t comma = arg.find(',');
    const std::string head = arg.substr(0, comma);
    if (head.find('=') == std::string::npos) {
        if (comma == std::string::npos && !has_preset(head))
            return apply(li::Config::fromFile(head));
        // A preset head (fatal with the known names if unknown),
        // optionally with k=v overrides appended.
        Spec s = make_preset(head);
        if (comma != std::string::npos)
            s.applyConfig(
                li::Config::fromString(arg.substr(comma + 1)));
        return s;
    }
    return apply(li::Config::fromString(arg));
}

} // namespace

ScenarioSpec
parseScenarioSpecArg(const std::string &arg,
                     const ScenarioSpec &defaults)
{
    return parseSpecArgImpl(arg, defaults, hasScenarioPreset,
                            scenarioPreset);
}

NetworkSpec
parseNetworkSpecArg(const std::string &arg,
                    const NetworkSpec &defaults)
{
    return parseSpecArgImpl(arg, defaults, hasNetworkPreset,
                            networkPreset);
}

} // namespace sim
} // namespace wilis
