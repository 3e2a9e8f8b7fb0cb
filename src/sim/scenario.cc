#include "sim/scenario.hh"

#include <algorithm>
#include <charconv>
#include <limits>
#include <optional>
#include <span>
#include <tuple>
#include <type_traits>
#include <utility>

#include "channel/awgn.hh"
#include "common/logging.hh"
#include "decode/soft_decoder.hh"

namespace wilis {
namespace sim {

namespace {

// ------------------------------------------------ key declarations
//
// Every ScenarioSpec and NetworkSpec key is declared exactly once, in
// visitScenarioKeys() / visitNetworkKeys() below: its name, the field
// it binds, its scope (the section it sits in) and the values it
// accepts. applyConfig(), toConfig(), the public key lists and the
// unknown-key and wrong-engine rejections are each one pass over
// those lists. Hand-written on top: cells=RxC, the channel./decoder./
// link. prefix families, the link shorthands, the snr_db/seed
// aliases and the checks that relate two keys.

using li::above;
using li::atLeast;
using li::Optional;
using li::Range;
using li::within;

/** What every pass over a key list tracks: the current section. */
struct KeyPass {
    /** Engine the section's keys configure. */
    KeyScope scope = KeyScope::Any;
    /**
     * The section holds run policy -- how a run is repeated and
     * saved, not what it simulates -- which fingerprint() leaves out.
     */
    bool runPolicy = false;

    void
    section(KeyScope scope_, bool run_policy = false)
    {
        scope = scope_;
        runPolicy = run_policy;
    }
};

constexpr bool kRunPolicy = true;

/**
 * The ScenarioSpec key list. All keys apply to every engine; the
 * channel./decoder. prefixes and the snr_db/seed aliases are
 * hand-written in applyConfig()/toConfig().
 */
template <typename S, typename V>
void
visitScenarioKeys(S &s, V &v)
{
    v("name", s.name);
    v("rate", s.rate,
      Range<phy::RateIndex>{
          .lo = 0, .hi = phy::kNumRates - 1, .noun = "rate index"});
    v("channel", s.channel);
    // 4095 octets: the longest PSDU the 802.11a/g LENGTH field holds.
    v("payload_bits", s.payloadBits, within<size_t>(1, 32760));
    v("payload_seed", s.payloadSeed);
    v("decoder", s.rx.decoder);
    v("soft_width", s.rx.demapper.softWidth, within(2, 24));
    v("csi_weight", s.rx.applyCsiWeight);
    // The scrambler's state is 7 bits and must not start at zero.
    v("scrambler_seed", s.rx.scramblerSeed,
      within<std::uint8_t>(1, 0x7F));
    v("baseband_mhz", s.clocks.basebandMhz, above(0.0));
    v("decoder_mhz", s.clocks.decoderMhz, above(0.0));
    v("host_mhz", s.clocks.hostMhz, above(0.0));
}

/**
 * The NetworkSpec key list, in sections by the engine a key
 * configures and whether it is run policy. cells=RxC, the link.
 * prefix and the link shorthands are hand-written in
 * applyConfig()/toConfig(); so are the checks relating two keys
 * (pber_lo < pber_hi, min_distance_m < cell_radius_m, checkpoint_*
 * need checkpoint_file).
 */
template <typename S, typename V>
void
visitNetworkKeys(S &s, V &v)
{
    v.section(KeyScope::Any);
    v("name", s.name);
    v("users", s.numUsers, within(1, 1 << 20));
    v("doppler_hz", s.dopplerHz, atLeast(0.0));
    v("frame_interval_us", s.frameIntervalUs, above(0.0));
    v("arq", s.arqMode, mac::kArqModeNames);
    // Half of a 12-bit sequence space.
    v("arq_window", s.arqWindow, within(1, 2048));
    // 0 retries forever.
    v("arq_max_attempts", s.arqMaxAttempts, atLeast(0));
    v("ack_delay", s.ackDelaySlots);
    v("pber_lo", s.pberLo, atLeast(0.0));
    v("pber_hi", s.pberHi, atLeast(0.0));
    v("net_seed", s.seed);
    v("fidelity", s.fidelity.mode, kFidelityModeNames);
    v("fidelity_warmup", s.fidelity.warmupSlots);
    // 0 never refreshes after the warm-up.
    v("fidelity_refresh_period", s.fidelity.refreshPeriod);
    v("fidelity_refresh_slots", s.fidelity.refreshSlots);
    v("calibration_file", s.calibrationFile, Optional{});
    v("trace", s.trace);

    v.section(KeyScope::SingleCell);
    v("arrival", s.arrivalModel, kArrivalModelNames);
    v("arrival_prob", s.arrivalProb, within(0.0, 1.0));
    v("snr_spread_db", s.snrSpreadDb, atLeast(0.0));

    v.section(KeyScope::MultiCell);
    v("cell_spacing_m", s.topology.cellSpacingM, above(0.0));
    v("cell_radius_m", s.topology.cellRadiusM, above(0.0));
    v("min_distance_m", s.topology.minDistanceM, atLeast(0.0));
    v("ref_snr_db", s.topology.pathloss.refSnrDb);
    v("ref_distance_m", s.topology.pathloss.refDistanceM, above(0.0));
    v("pathloss_exp", s.topology.pathloss.exponent, atLeast(0.0));
    v("shadow_sigma_db", s.topology.pathloss.shadowSigmaDb,
      atLeast(0.0));
    v("traffic", s.traffic.kind, mac::kTrafficKindNames);
    // Frames/slot; the Poisson sampler's working range.
    v("traffic_load", s.traffic.load, within(0.0, 64.0));
    v("on_slots", s.traffic.onSlots, atLeast(1.0));
    v("off_slots", s.traffic.offSlots, atLeast(1.0));
    v("queue_limit", s.traffic.queueLimit, within(1, 1 << 20));
    v("qdisc", s.traffic.qdisc, mac::kQdiscKindNames);
    v("control_rate", s.traffic.controlRate, within(0.0, 64.0));
    v("scheduler", s.scheduler.kind, mac::kSchedulerKindNames);
    v("pf_horizon", s.scheduler.pfHorizonSlots, atLeast(1.0));
    v("contention", s.scheduler.contention, mac::kContentionModeNames);
    v("mobility", s.mobility.model, kMobilityModelNames);
    v("speed_mps", s.mobility.speedMps, above(0.0));
    v("handover_hyst_db", s.mobility.handoverHystDb, atLeast(0.0));
    v("handover_ttt_slots", s.mobility.handoverTttSlots);
    v("churn_rate", s.mobility.churnRate,
      Range<double>{.lo = 0.0, .hi = 1.0, .hiOpen = true});

    v.section(KeyScope::Any, kRunPolicy);
    v("reps", s.reps, atLeast(1));
    v.section(KeyScope::MultiCell, kRunPolicy);
    v("checkpoint_file", s.checkpoint.file, Optional{});
    v("checkpoint_every", s.checkpoint.everySlots, Optional{});
    v("checkpoint_resume", s.checkpoint.resume, Optional{});
}

/** applyConfig(): parse each key present, checking its scope. */
class ApplyKeys : public li::ApplyKeys, public KeyPass
{
  public:
    /** @param grid Deployment the scope check tests (NetworkSpec). */
    explicit ApplyKeys(const li::Config &cfg,
                       const TopologySpec *grid_ = nullptr)
        : li::ApplyKeys(cfg), grid(grid_)
    {}

    template <typename T, typename Check = li::NoCheck>
    void
    operator()(const char *key, T &field, const Check &check = {})
    {
        if (li::ApplyKeys::operator()(key, field, check))
            requireScope(key, scope);
    }

    /**
     * A key of one engine alongside the other engine's spec changes
     * nothing -- a silently wrong experiment -- so it is fatal.
     */
    void
    requireScope(const char *key, KeyScope key_scope) const
    {
        if (key_scope == KeyScope::SingleCell && grid->multicell())
            wilis_fatal("single-cell key '%s' has no effect in "
                        "multi-cell mode (cells=%dx%d); use the "
                        "traffic/topology keys instead",
                        key, grid->rows, grid->cols);
        if (key_scope == KeyScope::MultiCell && !grid->multicell())
            wilis_fatal("multi-cell key '%s' has no effect without a "
                        "cell grid; add cells=RxC (e.g. cells=3x3)",
                        key);
    }

  private:
    const TopologySpec *grid;
};

/** toConfig(): serialize the keys of the spec's engine. */
class EmitKeys : public KeyPass
{
  public:
    explicit EmitKeys(li::Config &out_, bool multicell_ = false,
                      bool with_run_policy = true)
        : out(out_), multicell(multicell_),
          withRunPolicy(with_run_policy)
    {}

    template <typename T, typename Check = li::NoCheck>
    void
    operator()(const char *key, const T &field, const Check &check = {})
    {
        if (scope == (multicell ? KeyScope::SingleCell
                                : KeyScope::MultiCell) ||
            (runPolicy && !withRunPolicy))
            return;
        if constexpr (NameTableOf<Check, T>)
            out.set(key, std::string(check.name(field)));
        else if (!std::is_same_v<Check, Optional> || field != T{})
            out.set(key, li::formatValue(field));
    }

  private:
    li::Config &out;
    bool multicell;
    bool withRunPolicy;
};

/** The key lists: every name, or those of one scope. */
class ListKeys : public KeyPass
{
  public:
    explicit ListKeys(std::vector<std::string> &out_,
                      std::optional<KeyScope> only_ = std::nullopt)
        : out(out_), only(only_)
    {}

    template <typename T, typename Check = li::NoCheck>
    void
    operator()(const char *key, const T &, const Check & = {})
    {
        add(key, scope);
    }

    void
    add(const char *key, KeyScope key_scope)
    {
        if (!only || *only == key_scope)
            out.emplace_back(key);
    }

  private:
    std::vector<std::string> &out;
    std::optional<KeyScope> only;
};

// Hand-written keys (see the note above visitScenarioKeys()).
const char kChannelPrefix[] = "channel.";
const char kDecoderPrefix[] = "decoder.";
const char kLinkPrefix[] = "link.";
const char kCellsKey[] = "cells";
/** ScenarioSpec keys forwarded verbatim to the channel config. */
const char *const kChannelAliases[] = {"snr_db", "seed"};
/** Link-template keys NetworkSpec also accepts without "link.". */
const std::pair<const char *, KeyScope> kLinkShorthands[] = {
    {"rate", KeyScope::Any},
    {"snr_db", KeyScope::SingleCell},
    {"payload_bits", KeyScope::Any},
    {"decoder", KeyScope::Any},
};

/**
 * Reject config keys outside @p keys (sorted; entries ending in '.'
 * are prefix families, which must be followed by a sub-key). A typo
 * would otherwise leave the default in place and the experiment
 * quietly wrong.
 */
void
rejectUnknownKeys(const li::Config &cfg, const char *spec_name,
                  const std::vector<std::string> &keys)
{
    for (const auto &kv : cfg.entries()) {
        const std::string &key = kv.first;
        const bool known =
            std::any_of(keys.begin(), keys.end(), [&](const auto &k) {
                return k.back() == '.' ? key.size() > k.size() &&
                                             key.rfind(k, 0) == 0
                                       : key == k;
            });
        if (known)
            continue;
        std::string valid;
        for (const std::string &k : keys)
            valid += (valid.empty() ? "" : ", ") + k;
        wilis_fatal("unknown %s key '%s' (valid keys: %s)", spec_name,
                    key.c_str(), valid.c_str());
    }
}

/**
 * The grid of cells=RxC; fatal, naming the key, unless R and C are
 * integers >= 1 whose product an int holds.
 */
std::pair<int, int>
parseCells(const std::string &grid)
{
    // A side too long for a long long reads as its maximum, so it is
    // out of range rather than malformed.
    const auto side = [&](size_t from, size_t to, long long &v) {
        const char *last = grid.data() + to;
        const auto [end, ec] = std::from_chars(grid.data() + from, last, v);
        if (ec == std::errc::result_out_of_range)
            v = std::numeric_limits<long long>::max();
        return ec != std::errc::invalid_argument && end == last && v >= 1;
    };
    const size_t x = grid.find('x');
    long long rows = 0;
    long long cols = 0;
    if (x == std::string::npos || !side(0, x, rows) ||
        !side(x + 1, grid.size(), cols))
        wilis_fatal("malformed cells '%s' (expected RxC, e.g. cells=3x3)",
                    grid.c_str());
    wilis_fatal_if(rows > std::numeric_limits<int>::max() / cols,
                   "cells %s out of range: cells R*C must be <= %d",
                   grid.c_str(), std::numeric_limits<int>::max());
    return {static_cast<int>(rows), static_cast<int>(cols)};
}

/** Copy the @p prefix family of @p cfg into @p sub, prefix stripped. */
void
copyPrefixed(const li::Config &cfg, const std::string &prefix,
             li::Config &sub)
{
    for (const auto &kv : cfg.entries())
        if (kv.first.rfind(prefix, 0) == 0)
            sub.set(kv.first.substr(prefix.size()), kv.second);
}

/** Add @p sub to @p cfg under @p prefix. */
void
emitPrefixed(const li::Config &sub, const std::string &prefix,
             li::Config &cfg)
{
    for (const auto &kv : sub.entries())
        cfg.set(prefix + kv.first, kv.second);
}

} // namespace

std::vector<std::string>
scenarioSpecKeys()
{
    std::vector<std::string> keys = {kChannelPrefix, kDecoderPrefix};
    keys.insert(keys.end(), std::begin(kChannelAliases),
                std::end(kChannelAliases));
    const ScenarioSpec spec;
    ListKeys list(keys);
    visitScenarioKeys(spec, list);
    std::sort(keys.begin(), keys.end());
    return keys;
}

std::vector<std::string>
networkSpecKeys(std::optional<KeyScope> scope)
{
    std::vector<std::string> keys;
    ListKeys list(keys, scope);
    const NetworkSpec spec;
    visitNetworkKeys(spec, list);
    list.add(kCellsKey, KeyScope::MultiCell);
    list.add(kLinkPrefix, KeyScope::Any);
    for (const auto &[key, key_scope] : kLinkShorthands)
        list.add(key, key_scope);
    std::sort(keys.begin(), keys.end());
    return keys;
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
ScenarioSpec::withChannelSeed(std::uint64_t seed) const
{
    ScenarioSpec s = *this;
    s.channelCfg.set("seed", std::to_string(seed));
    return s;
}

double
ScenarioSpec::snrDb() const
{
    return channelCfg.getDouble("snr_db", channel::AwgnParams{}.snrDb);
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
    static const std::vector<std::string> keys = scenarioSpecKeys();
    rejectUnknownKeys(cfg, "ScenarioSpec", keys);

    ApplyKeys apply(cfg);
    visitScenarioKeys(*this, apply);
    // The aliases are checked on their own first, so that an error
    // names them the way the user wrote them.
    li::Config aliases;
    for (const char *alias : kChannelAliases)
        if (cfg.has(alias))
            aliases.set(alias, cfg.getString(alias));
    const auto &channels = channel::ChannelRegistry::global();
    channels.check(channel, aliases, "");
    copyPrefixed(cfg, kChannelPrefix, channelCfg);
    copyPrefixed(cfg, kDecoderPrefix, rx.decoderCfg);
    copyPrefixed(aliases, "", channelCfg);
    // The final pairs, on the caller's thread: a bad value is fatal
    // here, not in a constructor on several sweep workers at once.
    channels.check(channel, channelCfg, kChannelPrefix);
    decode::DecoderRegistry::global().check(rx.decoder, rx.decoderCfg,
                                            kDecoderPrefix);
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
    EmitKeys emit(cfg);
    visitScenarioKeys(*this, emit);
    emitPrefixed(channelCfg, kChannelPrefix, cfg);
    emitPrefixed(rx.decoderCfg, kDecoderPrefix, cfg);
    return cfg;
}

// ------------------------------------------------------ presets

namespace {

/**
 * A built-in preset is a named spec argument: makePreset() builds
 * @c parent (or the spec's defaults when there is none), then
 * applies "name=<name>,<config>" through applyConfig() -- the path a
 * user's "preset,k=v" override takes -- so a preset sets only keyed
 * fields, passes the same checks, and its golden line is its row.
 */
struct PresetRow {
    const char *name;
    /** An earlier row to start from, or nullptr. */
    const char *parent;
    /** The "k=v,..." overrides on top of the parent. */
    const char *config;
};

/** Sorted names of @p rows. */
std::vector<std::string>
presetNames(std::span<const PresetRow> rows)
{
    std::vector<std::string> names;
    for (const PresetRow &row : rows)
        names.emplace_back(row.name);
    std::sort(names.begin(), names.end());
    return names;
}

/** The row named @p name, or nullptr. */
const PresetRow *
findPreset(std::span<const PresetRow> rows, const std::string &name)
{
    for (const PresetRow &row : rows)
        if (name == row.name)
            return &row;
    return nullptr;
}

/** Instantiate @p name from @p rows; fatal with the known names. */
template <typename Spec>
Spec
makePreset(std::span<const PresetRow> rows, const char *kind,
           const std::string &name)
{
    const PresetRow *row = findPreset(rows, name);
    if (row == nullptr) {
        std::string known;
        for (const std::string &n : presetNames(rows))
            known += (known.empty() ? "" : ", ") + n;
        wilis_fatal("no %s preset '%s' (known: %s)", kind, name.c_str(),
                    known.c_str());
    }
    // The parent is looked up among the earlier rows only, so a
    // cycle cannot be written.
    const auto earlier = rows.first(static_cast<size_t>(row - rows.data()));
    Spec s;
    if (row->parent != nullptr)
        s = makePreset<Spec>(earlier, kind, row->parent);
    const std::string cfg =
        std::string("name=") + row->name + "," + row->config;
    s.applyConfig(li::Config::fromString(cfg));
    return s;
}

const PresetRow kScenarioPresets[] = {
    {"awgn-mid", nullptr, "channel=awgn,snr_db=10"},
    {"awgn-clean", nullptr, "channel=awgn,snr_db=30"},
    // The Figure 7 SoftRate setting: 20 Hz fading, 10 dB AWGN.
    {"rayleigh-fading", nullptr,
     "channel=rayleigh,snr_db=10,channel.doppler_hz=20"},
    {"multipath-selective", nullptr,
     "channel=multipath,snr_db=15,channel.num_taps=4,"
     "channel.delay_spread=3,csi_weight=true"},
    {"interference-tone", nullptr,
     "channel=interference,snr_db=15,channel.sir_db=10"},
};

const PresetRow kNetworkPresets[] = {
    // The shared base of the cell presets: a QPSK 1/2 start, room
    // to adapt both ways.
    {"cell-16", nullptr, "rate=2,payload_bits=1000,snr_db=14,snr_spread_db=6"},
    // Many bursty users contending for the same timeline.
    {"cell-dense", "cell-16", "users=64,arrival=bernoulli,arrival_prob=0.5"},
    // Fast fading: adaptation and ARQ chase a 120 Hz channel.
    {"cell-mobile", "cell-16", "doppler_hz=120"},
    // Stop-and-wait baseline for the ARQ-mode comparison.
    {"cell-stopwait", "cell-16", "arq=stopwait,ack_delay=2"},
    // The scale step: a thousand users on the calibrated analytic
    // fast path (full PHY here would cost ~1000x a cell-16 run).
    {"cell-1k", "cell-16", "users=1024,fidelity=analytic"},
    // cell-dense's bursty contention at analytic cost.
    {"dense-analytic", "cell-dense", "users=256,fidelity=analytic"},
    // Mixed fidelity: bit-exact warm-up + periodic refresh, analytic
    // in between.
    {"cell-auto", "cell-16", "fidelity=auto"},
    // The multi-cell starter: 9 cells, 4 users each, Poisson traffic
    // through round-robin scheduling, SINR from same-slot
    // interfering cells, analytic fidelity off the committed
    // calibration table (run from the repo root, or override
    // calibration_file=).
    {"grid-3x3", "cell-16",
     "cells=3x3,users=36,cell_spacing_m=500,cell_radius_m=250,"
     // 4 users/cell at 0.2 frames/slot offers ~0.8 of the
     // one-grant-per-slot cell capacity: busy but stable.
     "traffic=poisson,traffic_load=0.2,scheduler=round_robin,"
     "fidelity=analytic,calibration_file=data/network_calibration.txt"},
    // The deployment-scale step: a 10x10 urban grid with 10k+ bursty
    // users under proportional-fair scheduling, only reachable on
    // the calibrated analytic rung (full PHY here would cost ~3
    // orders of magnitude more per slot).
    {"dense-urban-10k", "cell-16",
     "cells=10x10,users=10240,cell_spacing_m=200,cell_radius_m=100,"
     "min_distance_m=10,ref_snr_db=44,pathloss_exp=3.8,"
     "shadow_sigma_db=8,"
     "doppler_hz=10," // pedestrian mobility
     // ~102 users/cell with a 25% ON duty cycle at 0.04 frames/slot
     // while ON offers ~1.02x each cell's one-grant-per-slot
     // capacity: bursts queue and drain, the congested-but-live
     // regime dense urban means.
     "traffic=onoff,traffic_load=0.04,on_slots=24,off_slots=72,"
     "scheduler=proportional_fair,fidelity=analytic,"
     "calibration_file=data/network_calibration.txt"},
    // The mobility showcase: vehicular users random-waypointing
    // across a tight 4x4 grid with RSRP handover and session churn.
    // The cells are small and the users fast (30 m/s over 150 m
    // spacing) so a few thousand 2 ms slots cover enough ground for
    // real handover activity; hysteresis 2 dB with ~one-epoch
    // time-to-trigger keeps ping-pong visible but bounded.
    {"urban-mobile", "cell-16",
     "cells=4x4,users=96,cell_spacing_m=150,cell_radius_m=75,"
     "min_distance_m=5,"
     // Small cells need less mast power; 47 dB ref SNR puts the
     // near/far link-budget window exactly on the committed
     // calibration table's [-10, 28] dB span (edge mean ~16 dB, so
     // handover still trades real throughput).
     "ref_snr_db=47,"
     "doppler_hz=60," // vehicular fading
     "traffic=poisson,traffic_load=0.15,scheduler=round_robin,"
     "fidelity=analytic,calibration_file=data/network_calibration.txt,"
     "mobility=waypoint,speed_mps=30,handover_hyst_db=2,"
     "handover_ttt_slots=100,"
     // Mean dwell 1/rate = 2000 slots: about one session transition
     // per user over a standard smoke run.
     "churn_rate=0.0005"},
};

} // namespace

ScenarioSpec
scenarioPreset(const std::string &name)
{
    return makePreset<ScenarioSpec>(kScenarioPresets, "scenario", name);
}

bool
hasScenarioPreset(const std::string &name)
{
    return findPreset(kScenarioPresets, name) != nullptr;
}

std::vector<std::string>
scenarioPresetNames()
{
    return presetNames(kScenarioPresets);
}

NetworkSpec
networkPreset(const std::string &name)
{
    return makePreset<NetworkSpec>(kNetworkPresets, "network", name);
}

bool
hasNetworkPreset(const std::string &name)
{
    return findPreset(kNetworkPresets, name) != nullptr;
}

std::vector<std::string>
networkPresetNames()
{
    return presetNames(kNetworkPresets);
}

// ------------------------------------------------ network specs

void
NetworkSpec::applyConfig(const li::Config &cfg)
{
    static const std::vector<std::string> keys = networkSpecKeys();
    rejectUnknownKeys(cfg, "NetworkSpec", keys);

    // The grid decides which engine's keys are valid, so it goes
    // first.
    if (cfg.has(kCellsKey))
        std::tie(topology.rows, topology.cols) =
            parseCells(cfg.getString(kCellsKey));

    ApplyKeys apply(cfg, &topology);
    visitNetworkKeys(*this, apply);

    wilis_fatal_if(!(pberLo < pberHi),
                   "pber_lo must be < pber_hi, got %g >= %g", pberLo,
                   pberHi);
    wilis_fatal_if(multicell() &&
                       !(topology.minDistanceM < topology.cellRadiusM),
                   "min_distance_m must be < cell_radius_m, got %g >= %g",
                   topology.minDistanceM, topology.cellRadiusM);
    wilis_fatal_if(!checkpoint.enabled() &&
                       (checkpoint.everySlots != 0 || checkpoint.resume),
                   "checkpoint_every/checkpoint_resume need "
                   "checkpoint_file");

    // Both engines build their own channel (ar1 per user, or AWGN at
    // the SINR); only the single-cell one reads the template's SNR.
    for (const auto &[key, value] : cfg.entries())
        wilis_fatal_if(key == "link.channel"
                           ? value != "awgn"
                           : key == "link.seed" ||
                                 (key.rfind("link.channel.", 0) == 0 &&
                                  key != "link.channel.snr_db"),
                       "link key '%s' has no effect: the network "
                       "engines build their own channel (only "
                       "link.channel.snr_db is read)",
                       key.c_str());

    // The link template: explicit "link.<k>" keys plus the
    // shorthands.
    li::Config link_cfg;
    copyPrefixed(cfg, kLinkPrefix, link_cfg);
    for (const auto &[key, key_scope] : kLinkShorthands) {
        if (cfg.has(key)) {
            apply.requireScope(key, key_scope);
            link_cfg.set(key, cfg.getString(key));
        }
    }
    link.applyConfig(link_cfg);
}

NetworkSpec
NetworkSpec::fromConfig(const li::Config &cfg)
{
    NetworkSpec s;
    s.applyConfig(cfg);
    return s;
}

namespace {

/**
 * toConfig(), optionally without the run-policy keys. Each engine's
 * spec round-trips with exactly its own key set: the other engine's
 * keys would be rejected by applyConfig().
 */
li::Config
networkConfig(const NetworkSpec &spec, bool with_run_policy)
{
    li::Config cfg;
    EmitKeys emit(cfg, spec.multicell(), with_run_policy);
    visitNetworkKeys(spec, emit);
    if (spec.multicell())
        cfg.set(kCellsKey, strprintf("%dx%d", spec.topology.rows,
                                     spec.topology.cols));
    emitPrefixed(spec.link.toConfig(), kLinkPrefix, cfg);
    return cfg;
}

} // namespace

li::Config
NetworkSpec::toConfig() const
{
    return networkConfig(*this, true);
}

std::string
NetworkSpec::fingerprint() const
{
    // li::Config::toString() is sorted, so the string is independent
    // of how the spec was built.
    return networkConfig(*this, false).toString();
}

// ------------------------------------------------ spec arguments

li::Config
specArgConfig(const std::string &arg, bool (*has_preset)(const std::string &))
{
    const size_t comma = arg.find(',');
    const std::string head = arg.substr(0, comma);
    if (head.find('=') != std::string::npos)
        return li::Config::fromString(arg);
    if (comma == std::string::npos && !has_preset(head))
        return li::Config::fromFile(head);
    // A preset head, optionally with k=v overrides appended.
    li::Config cfg;
    if (comma != std::string::npos)
        cfg = li::Config::fromString(arg.substr(comma + 1));
    wilis_fatal_if(cfg.has("preset"),
                   "'%s' names a preset twice (head and preset=)",
                   arg.c_str());
    cfg.set("preset", head);
    return cfg;
}

namespace {

/**
 * A spec from a specArgConfig() config: its preset= base (fatal with
 * the known names if unknown) or @p defaults, then the other keys.
 */
template <typename Spec>
Spec
applySpecArgConfig(const li::Config &cfg, const Spec &defaults,
                   Spec (*make_preset)(const std::string &))
{
    Spec s = defaults;
    if (cfg.has("preset"))
        s = make_preset(cfg.getString("preset"));
    li::Config rest;
    for (const auto &[key, value] : cfg.entries())
        if (key != "preset")
            rest.set(key, value);
    s.applyConfig(rest);
    return s;
}

} // namespace

ScenarioSpec
scenarioSpecFromArgConfig(const li::Config &cfg, const ScenarioSpec &defaults)
{
    return applySpecArgConfig(cfg, defaults, scenarioPreset);
}

ScenarioSpec
parseScenarioSpecArg(const std::string &arg, const ScenarioSpec &defaults)
{
    const li::Config cfg = specArgConfig(arg, hasScenarioPreset);
    return scenarioSpecFromArgConfig(cfg, defaults);
}

NetworkSpec
parseNetworkSpecArg(const std::string &arg, const NetworkSpec &defaults)
{
    const li::Config cfg = specArgConfig(arg, hasNetworkPreset);
    return applySpecArgConfig(cfg, defaults, networkPreset);
}

} // namespace sim
} // namespace wilis
