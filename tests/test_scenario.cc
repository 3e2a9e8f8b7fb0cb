/**
 * @file
 * Tests for the unified ScenarioSpec: config round-trips, the preset
 * rows and fluent grid helpers, and the name tables of the enum keys.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "channel/channel.hh"
#include "common/kernels.hh"
#include "decode/soft_decoder.hh"
#include "mac/packet_trace.hh"
#include "sim/scenario.hh"
#include "sim/testbench.hh"

using namespace wilis;
using namespace wilis::sim;

TEST(ScenarioSpec, ConfigRoundTrips)
{
    ScenarioSpec s;
    s.name = "roundtrip";
    s.rate = 6;
    s.channel = "rayleigh";
    s.channelCfg =
        li::Config::fromString("snr_db=9.5,doppler_hz=35,seed=42");
    s.payloadBits = 1234;
    s.payloadSeed = 777;
    s.rx.decoder = "sova";
    s.rx.decoderCfg = li::Config::fromString("traceback_l=48");
    s.rx.demapper.softWidth = 5;
    s.rx.applyCsiWeight = true;
    s.clocks.basebandMhz = 40.0;

    ScenarioSpec back = ScenarioSpec::fromConfig(s.toConfig());
    EXPECT_EQ(back.name, "roundtrip");
    EXPECT_EQ(back.rate, 6);
    EXPECT_EQ(back.channel, "rayleigh");
    EXPECT_DOUBLE_EQ(back.snrDb(), 9.5);
    EXPECT_DOUBLE_EQ(back.channelCfg.getDouble("doppler_hz", 0), 35.0);
    EXPECT_EQ(back.channelCfg.getInt("seed", 0), 42);
    EXPECT_EQ(back.payloadBits, 1234u);
    EXPECT_EQ(back.payloadSeed, 777u);
    EXPECT_EQ(back.rx.decoder, "sova");
    EXPECT_EQ(back.rx.decoderCfg.getInt("traceback_l", 0), 48);
    EXPECT_EQ(back.rx.demapper.softWidth, 5);
    EXPECT_TRUE(back.rx.applyCsiWeight);
    EXPECT_DOUBLE_EQ(back.clocks.basebandMhz, 40.0);
}

TEST(ScenarioSpec, FullRangeSeedsSurviveRoundTrip)
{
    // Grid cells assign uniform 64-bit seeds; serialization must not
    // truncate them through a signed-long parse.
    ScenarioSpec s;
    s.payloadSeed = 0xFEDCBA9876543210ull;
    ScenarioSpec back = ScenarioSpec::fromConfig(s.toConfig());
    EXPECT_EQ(back.payloadSeed, 0xFEDCBA9876543210ull);
}

TEST(ScenarioSpec, ChannelSeedsPast2To63RunDistinctNoise)
{
    // Both seeds used to saturate to 2^63 - 1 and print the same run.
    std::vector<std::vector<double>> hints;
    for (const char *seed : {"9223372036854775808", "9223372036854775809"}) {
        ScenarioSpec s = scenarioPreset("awgn-mid");
        s.applyConfig(li::Config::fromString(std::string("seed=") + seed));
        Testbench tb(s.withPayloadBits(200));
        FrameResult r = tb.runFrame(200, 0);
        hints.emplace_back();
        for (const SoftDecision &d : r.rx.soft)
            hints.back().push_back(d.llr);
    }
    EXPECT_NE(hints[0], hints[1]);
}

TEST(ScenarioSpec, FromConfigString)
{
    ScenarioSpec s = ScenarioSpec::fromConfig(li::Config::fromString(
        "rate=3,channel=multipath,snr_db=14,decoder=viterbi,"
        "payload_bits=512,channel.num_taps=6"));
    EXPECT_EQ(s.rate, 3);
    EXPECT_EQ(s.channel, "multipath");
    EXPECT_DOUBLE_EQ(s.snrDb(), 14.0);
    EXPECT_EQ(s.rx.decoder, "viterbi");
    EXPECT_EQ(s.payloadBits, 512u);
    EXPECT_EQ(s.channelCfg.getInt("num_taps", 0), 6);
}

TEST(ScenarioSpec, RejectsUnknownKeysWithAPinnedError)
{
    // A misspelled key used to be silently accepted, leaving the
    // default in place and the experiment quietly wrong; it is now
    // fatal with the offending key named.
    EXPECT_EXIT(ScenarioSpec::fromConfig(li::Config::fromString(
                    "rate=3,payload_bit=512")),
                testing::ExitedWithCode(1),
                "unknown ScenarioSpec key 'payload_bit'");
    EXPECT_EXIT(ScenarioSpec::fromConfig(
                    li::Config::fromString("snr=10")),
                testing::ExitedWithCode(1),
                "unknown ScenarioSpec key 'snr'");
    // Prefixed keys are checked against the selected channel's and
    // decoder's own key lists.
    EXPECT_EXIT(ScenarioSpec::fromConfig(li::Config::fromString(
                    "channel.custom_knob=1,decoder.window=9")),
                testing::ExitedWithCode(1),
                "unknown channel key 'channel.custom_knob' for awgn");
    EXPECT_EXIT(ScenarioSpec::fromConfig(
                    li::Config::fromString("decoder.window=9")),
                testing::ExitedWithCode(1),
                "unknown decoder key 'decoder.window' for bcjr "
                "\\(valid keys: block_len\\)");
    // A bare prefix is not a key.
    EXPECT_EXIT(ScenarioSpec::fromConfig(
                    li::Config::fromString("channel.=1")),
                testing::ExitedWithCode(1),
                "unknown ScenarioSpec key 'channel.'");
}

TEST(ScenarioSpec, RejectsMalformedValues)
{
    EXPECT_EXIT(ScenarioSpec::fromConfig(
                    li::Config::fromString("rate=fast")),
                testing::ExitedWithCode(1),
                "");
    EXPECT_EXIT(ScenarioSpec::fromConfig(
                    li::Config::fromString("rate=9")),
                testing::ExitedWithCode(1),
                "rate index 9 out of range");
}

TEST(ScenarioSpec, ChannelValuesTheConstructorsAssertOnExitNamingTheKey)
{
    // These reached the channel constructors' asserts (exit 134).
    const struct {
        const char *spec;
        const char *error;
    } cases[] = {
        {"channel=rayleigh,channel.doppler_hz=-5",
         "channel.doppler_hz must be >= 0"},
        {"channel=multipath,channel.num_taps=0",
         "channel.num_taps must be >= 1"},
        {"channel=multipath,channel.num_taps=18",
         "channel.num_taps must be in \\[1,17\\]"},
        {"channel=multipath,channel.delay_spread=0",
         "channel.delay_spread must be > 0"},
        {"channel=multipath,channel.delay_spread=nan",
         "channel.delay_spread must be > 0"},
    };
    for (const auto &c : cases)
        EXPECT_EXIT(ScenarioSpec::fromConfig(li::Config::fromString(c.spec)),
                    testing::ExitedWithCode(1), c.error)
            << c.spec;
    // A network spec rejects the link channel key outright: the
    // engines build their own channel.
    EXPECT_EXIT(NetworkSpec::fromConfig(li::Config::fromString(
                    "link.channel.doppler_hz=-1")),
                testing::ExitedWithCode(1), "channel.doppler_hz");
    // The edges of each range are accepted, each on a channel that
    // reads the key.
    ScenarioSpec::fromConfig(li::Config::fromString(
        "channel=rayleigh,channel.doppler_hz=0"));
    const ScenarioSpec edges = ScenarioSpec::fromConfig(li::Config::fromString(
        "channel=multipath,channel.num_taps=17,channel.delay_spread=0.1"));
    EXPECT_EQ(edges.channelCfg.getInt("num_taps"), 17);
}

TEST(ScenarioSpec, ChannelValuesThatRunSilentlyOrCrashExitNamingTheKey)
{
    // These ran to a meaningless result (PER 1, 0 Mb/s) or aborted
    // when the channel spawned its noise threads.
    const struct {
        const char *spec;
        const char *error;
    } cases[] = {
        {"snr_db=nan", "snr_db nan out of range: snr_db must be finite"},
        {"channel.snr_db=inf", "channel.snr_db must be finite"},
        {"channel.snr_db=-inf", "channel.snr_db must be finite"},
        {"channel=interference,channel.sir_db=nan",
         "channel.sir_db must be finite"},
        {"channel=rayleigh,channel.packet_interval_us=-1",
         "channel.packet_interval_us must be > 0"},
        {"channel=rayleigh,channel.packet_interval_us=0",
         "channel.packet_interval_us must be > 0"},
        {"channel.threads=100000",
         "channel.threads must be in \\[0,1024\\]"},
        {"channel.threads=-1", "channel.threads must be >= 0"},
    };
    for (const auto &c : cases)
        EXPECT_EXIT(ScenarioSpec::fromConfig(li::Config::fromString(c.spec)),
                    testing::ExitedWithCode(1), c.error)
            << c.spec;
    // A network spec's snr_db shorthand reaches the same check.
    EXPECT_EXIT(parseNetworkSpecArg("cell-16,snr_db=nan"),
                testing::ExitedWithCode(1), "snr_db must be finite");
    // The edges of each range are accepted, each on a channel that
    // reads the key.
    const ScenarioSpec edges = ScenarioSpec::fromConfig(li::Config::fromString(
        "channel=interference,snr_db=-40,channel.sir_db=1e300,"
        "channel.threads=1024"));
    EXPECT_EQ(edges.channelCfg.getInt("threads"), 1024);
    ScenarioSpec::fromConfig(li::Config::fromString(
        "channel=rayleigh,channel.packet_interval_us=1e-9"));
    EXPECT_EQ(ScenarioSpec::fromConfig(
                  li::Config::fromString("channel.threads=0"))
                  .channelCfg.getInt("threads"),
              0);
}

TEST(ScenarioSpec, KeysTheImplementationDoesNotReadExitNamingTheKey)
{
    // Each of these used to run with the key ignored (exit 0) or
    // abort in a constructor (exit 134).
    const struct {
        const char *spec;
        const char *error;
    } cases[] = {
        {"awgn-mid,decoder.bogus_key=7,channel.nonsense=3",
         "unknown channel key 'channel.nonsense' for awgn"},
        {"awgn-mid,decoder.bogus_key=7",
         "unknown decoder key 'decoder.bogus_key' for bcjr"},
        {"awgn-mid,decoder.traceback_len=2",
         "unknown decoder key 'decoder.traceback_len' for bcjr"},
        {"awgn-mid,channel.doppler_hz=40",
         "unknown channel key 'channel.doppler_hz' for awgn"},
        {"awgn-mid,channel=ar1,channel.common_noise=true",
         "unknown channel key 'channel.common_noise' for ar1"},
        {"awgn-mid,decoder=bcjr-logmap,decoder.logmap=false",
         "unknown decoder key 'decoder.logmap' for bcjr-logmap"},
        {"awgn-mid,channel=ar1,channel.frame_interval_us=-1",
         "channel.frame_interval_us must be > 0"},
        {"awgn-mid,channel=ar1,channel.frame_interval_us=nan",
         "channel.frame_interval_us must be > 0"},
        // A key the preset set for its own channel does not carry
        // over to another.
        {"rayleigh-fading,channel=awgn",
         "unknown channel key 'channel.doppler_hz' for awgn"},
        {"interference-tone,decoder=sova,decoder.block_len=32",
         "unknown decoder key 'decoder.block_len' for sova"},
        // The link CLI used to forward these by hand, unchecked.
        {"multipath-selective,num_taps=0",
         "unknown ScenarioSpec key 'num_taps'"},
        {"multipath-selective,num_taps=40",
         "unknown ScenarioSpec key 'num_taps'"},
        {"rayleigh-fading,doppler_hz=-5",
         "unknown ScenarioSpec key 'doppler_hz'"},
        {"awgn-mid,num_taps=0", "unknown ScenarioSpec key 'num_taps'"},
    };
    for (const auto &c : cases)
        EXPECT_EXIT(parseScenarioSpecArg(c.spec), testing::ExitedWithCode(1),
                    std::string("fatal: .*") + c.error)
            << c.spec;
}

TEST(NetworkSpecStrict, RejectsTheLinkChannelKeysNoEngineReads)
{
    // The engines build their own channel per user; these ran the
    // same experiment as plain cell-16.
    for (const char *spec :
         {"cell-16,link.channel=multipath,link.channel.num_taps=4",
          "cell-16,link.channel.doppler_hz=500",
          "cell-16,link.channel.bogus=1", "cell-16,link.seed=3",
          "grid-3x3,link.channel=rayleigh"}) {
        const std::string key =
            std::string(spec).substr(std::string(spec).find(',') + 1);
        EXPECT_EXIT(parseNetworkSpecArg(spec), testing::ExitedWithCode(1),
                    "fatal: link key '" + key.substr(0, key.find('=')) +
                        "' has no effect: the network engines build "
                        "their own channel")
            << spec;
    }
    // The canonical link channel still round-trips.
    const NetworkSpec s =
        parseNetworkSpecArg("cell-16,link.channel=awgn,link.channel.snr_db=9");
    EXPECT_DOUBLE_EQ(s.link.snrDb(), 9.0);
    EXPECT_EQ(NetworkSpec::fromConfig(s.toConfig()).toConfig().toString(),
              s.toConfig().toString());
}

namespace {

/** A channel or decoder implementation, by its spec prefix. */
struct Implementation {
    /** "channel" or "decoder". */
    std::string kind;
    std::string name;
    /** The registry's accepted keys. */
    std::vector<std::string> keys;
};

std::vector<Implementation>
allImplementations()
{
    std::vector<Implementation> out;
    const auto &channels = channel::ChannelRegistry::global();
    for (const std::string &name : channels.names())
        out.push_back({"channel", name, channels.keys(name)});
    const auto &decoders = decode::DecoderRegistry::global();
    for (const std::string &name : decoders.names())
        out.push_back({"decoder", name, decoders.keys(name)});
    return out;
}

/** A valid value for every declared channel and decoder key. */
const std::map<std::string, std::string> kSampleValues = {
    {"snr_db", "12"},           {"seed", "5"},
    {"threads", "2"},           {"common_noise", "true"},
    {"doppler_hz", "5"},        {"packet_interval_us", "1000"},
    {"block_fading", "true"},   {"frame_interval_us", "1000"},
    {"num_taps", "3"},          {"delay_spread", "2"},
    {"sir_db", "8"},            {"interferer_bin", "-5"},
    {"traceback_len", "32"},    {"traceback_l", "32"},
    {"traceback_k", "16"},      {"block_len", "32"},
};

} // namespace

class ImplementationKeys : public ::testing::TestWithParam<Implementation>
{};

INSTANTIATE_TEST_SUITE_P(
    EveryChannelAndDecoder, ImplementationKeys,
    ::testing::ValuesIn(allImplementations()),
    [](const testing::TestParamInfo<Implementation> &info) {
        std::string id = info.param.kind + "_" + info.param.name;
        std::replace(id.begin(), id.end(), '-', '_');
        return id;
    });

TEST_P(ImplementationKeys, AcceptsItsOwnKeysAndRejectsTheOthers)
{
    const Implementation &impl = GetParam();
    const std::string select = impl.kind + "=" + impl.name + ",";
    std::set<std::string> others;
    for (const Implementation &other : allImplementations())
        if (other.kind == impl.kind)
            others.insert(other.keys.begin(), other.keys.end());
    for (const std::string &key : others) {
        ASSERT_TRUE(kSampleValues.count(key)) << "no sample for " << key;
        const std::string spec =
            select + impl.kind + "." + key + "=" + kSampleValues.at(key);
        const li::Config cfg = li::Config::fromString(spec);
        if (std::count(impl.keys.begin(), impl.keys.end(), key)) {
            const ScenarioSpec s = ScenarioSpec::fromConfig(cfg);
            const li::Config &sub =
                impl.kind == "channel" ? s.channelCfg : s.rx.decoderCfg;
            EXPECT_EQ(sub.getString(key), kSampleValues.at(key)) << spec;
        } else {
            EXPECT_EXIT(ScenarioSpec::fromConfig(cfg),
                        testing::ExitedWithCode(1),
                        "unknown " + impl.kind + " key '" + impl.kind +
                            "." + key + "' for " + impl.name)
                << spec;
        }
    }
}

TEST(NetworkSpecStrict, RejectsUnknownKeysWithAPinnedError)
{
    EXPECT_EXIT(NetworkSpec::fromConfig(li::Config::fromString(
                    "users=8,user=9")),
                testing::ExitedWithCode(1),
                "unknown NetworkSpec key 'user'");
    EXPECT_EXIT(NetworkSpec::fromConfig(li::Config::fromString(
                    "cells=3x3,schedular=round_robin")),
                testing::ExitedWithCode(1),
                "unknown NetworkSpec key 'schedular'");
    // The link.* pass-through still reaches the link template --
    // and the template rejects ITS unknown keys too.
    NetworkSpec ok = NetworkSpec::fromConfig(
        li::Config::fromString("link.soft_width=5"));
    EXPECT_EQ(ok.link.rx.demapper.softWidth, 5);
    EXPECT_EXIT(NetworkSpec::fromConfig(li::Config::fromString(
                    "link.soft_widht=5")),
                testing::ExitedWithCode(1),
                "unknown ScenarioSpec key 'soft_widht'");
}

TEST(NetworkSpecStrict, RejectsSingleCellKeysInMulticellConfigs)
{
    // arrival/arrival_prob/snr_spread_db/snr_db only drive the
    // single-cell engine; pairing them with a grid would silently
    // change nothing.
    EXPECT_EXIT(NetworkSpec::fromConfig(li::Config::fromString(
                    "cells=3x3,arrival=bernoulli")),
                testing::ExitedWithCode(1),
                "single-cell key 'arrival' has no effect in "
                "multi-cell mode");
    EXPECT_EXIT(NetworkSpec::fromConfig(li::Config::fromString(
                    "cells=2x2,snr_db=18")),
                testing::ExitedWithCode(1),
                "single-cell key 'snr_db' has no effect");
    // ...and symmetrically: multi-cell-only keys without a grid
    // would silently run the single-cell engine minus its traffic
    // model.
    EXPECT_EXIT(NetworkSpec::fromConfig(li::Config::fromString(
                    "users=16,traffic=poisson,traffic_load=0.2")),
                testing::ExitedWithCode(1),
                "multi-cell key 'traffic' has no effect without a "
                "cell grid");
    EXPECT_EXIT(NetworkSpec::fromConfig(li::Config::fromString(
                    "scheduler=proportional_fair")),
                testing::ExitedWithCode(1),
                "multi-cell key 'scheduler' has no effect");
    // Each engine's spec round-trips with exactly its own key set.
    NetworkSpec grid;
    grid.topology.rows = 2;
    grid.topology.cols = 2;
    const li::Config cfg = grid.toConfig();
    EXPECT_FALSE(cfg.has("arrival"));
    EXPECT_FALSE(cfg.has("snr_spread_db"));
    NetworkSpec back = NetworkSpec::fromConfig(cfg);
    EXPECT_TRUE(back.multicell());
    NetworkSpec single;
    const li::Config scfg = single.toConfig();
    EXPECT_FALSE(scfg.has("cells"));
    EXPECT_FALSE(scfg.has("traffic"));
    EXPECT_FALSE(NetworkSpec::fromConfig(scfg).multicell());
}

TEST(NetworkSpecStrict, RejectsMalformedValues)
{
    EXPECT_EXIT(NetworkSpec::fromConfig(
                    li::Config::fromString("cells=9")),
                testing::ExitedWithCode(1),
                "malformed cells '9'");
    EXPECT_EXIT(NetworkSpec::fromConfig(
                    li::Config::fromString("cells=3x")),
                testing::ExitedWithCode(1),
                "malformed cells '3x'");
    EXPECT_EXIT(NetworkSpec::fromConfig(
                    li::Config::fromString("traffic=bursty")),
                testing::ExitedWithCode(1),
                "unknown traffic model 'bursty'");
    EXPECT_EXIT(NetworkSpec::fromConfig(
                    li::Config::fromString("scheduler=fifo")),
                testing::ExitedWithCode(1),
                "unknown scheduler 'fifo'");
    EXPECT_EXIT(NetworkSpec::fromConfig(
                    li::Config::fromString("arrival=sometimes")),
                testing::ExitedWithCode(1),
                "unknown arrival model 'sometimes'");
    // The upper-stack keys are validated the same way: an unknown
    // value dies naming the valid set.
    EXPECT_EXIT(NetworkSpec::fromConfig(
                    li::Config::fromString("cells=3x3,qdisc=weird")),
                testing::ExitedWithCode(1),
                "unknown queue discipline 'weird' "
                "\\(fifo\\|priority\\|drop_head\\)");
    EXPECT_EXIT(NetworkSpec::fromConfig(li::Config::fromString(
                    "cells=3x3,contention=csma")),
                testing::ExitedWithCode(1),
                "unknown contention mode 'csma' \\(none\\|fixed\\)");
    EXPECT_EXIT(NetworkSpec::fromConfig(li::Config::fromString(
                    "cells=3x3,control_rate=-0.5")),
                testing::ExitedWithCode(1),
                "control_rate must be >= 0");
}

TEST(NetworkSpecStrict, UpperStackKeysAreMulticellOnly)
{
    // qdisc/control_rate/contention configure the multi-cell
    // traffic queues and scheduler; without a grid they would
    // silently do nothing.
    EXPECT_EXIT(NetworkSpec::fromConfig(
                    li::Config::fromString("qdisc=priority")),
                testing::ExitedWithCode(1),
                "multi-cell key 'qdisc' has no effect without a "
                "cell grid");
    EXPECT_EXIT(NetworkSpec::fromConfig(
                    li::Config::fromString("control_rate=0.1")),
                testing::ExitedWithCode(1),
                "multi-cell key 'control_rate' has no effect");
    EXPECT_EXIT(NetworkSpec::fromConfig(
                    li::Config::fromString("contention=fixed")),
                testing::ExitedWithCode(1),
                "multi-cell key 'contention' has no effect");
    // trace is a common key: both engines record it.
    EXPECT_TRUE(NetworkSpec::fromConfig(
                    li::Config::fromString("trace=true"))
                    .trace);
    NetworkSpec grid = NetworkSpec::fromConfig(li::Config::fromString(
        "cells=2x2,qdisc=drop_head,control_rate=0.25,"
        "contention=fixed,trace=true"));
    EXPECT_EQ(grid.traffic.qdisc, mac::QdiscKind::DropHead);
    EXPECT_DOUBLE_EQ(grid.traffic.controlRate, 0.25);
    EXPECT_EQ(grid.scheduler.contention, mac::ContentionMode::Fixed);
    EXPECT_TRUE(grid.trace);
    // ...and the new keys round-trip like everything else.
    NetworkSpec back = NetworkSpec::fromConfig(grid.toConfig());
    EXPECT_EQ(back.traffic.qdisc, mac::QdiscKind::DropHead);
    EXPECT_DOUBLE_EQ(back.traffic.controlRate, 0.25);
    EXPECT_EQ(back.scheduler.contention, mac::ContentionMode::Fixed);
    EXPECT_TRUE(back.trace);
}

TEST(NetworkSpecStrict, MobilityKeysRoundTripAndValidate)
{
    NetworkSpec grid = NetworkSpec::fromConfig(li::Config::fromString(
        "cells=2x2,mobility=waypoint,speed_mps=25,"
        "handover_hyst_db=4.5,handover_ttt_slots=96,"
        "churn_rate=0.001"));
    EXPECT_EQ(grid.mobility.model, MobilityModel::Waypoint);
    EXPECT_DOUBLE_EQ(grid.mobility.speedMps, 25.0);
    EXPECT_DOUBLE_EQ(grid.mobility.handoverHystDb, 4.5);
    EXPECT_EQ(grid.mobility.handoverTttSlots, 96u);
    EXPECT_DOUBLE_EQ(grid.mobility.churnRate, 0.001);
    NetworkSpec back = NetworkSpec::fromConfig(grid.toConfig());
    EXPECT_EQ(back.mobility.model, MobilityModel::Waypoint);
    EXPECT_DOUBLE_EQ(back.mobility.speedMps, 25.0);
    EXPECT_DOUBLE_EQ(back.mobility.handoverHystDb, 4.5);
    EXPECT_EQ(back.mobility.handoverTttSlots, 96u);
    EXPECT_DOUBLE_EQ(back.mobility.churnRate, 0.001);
    // The static default round-trips as "none" and keeps the
    // mobility layer disabled.
    EXPECT_FALSE(back.mobility.enabled() &&
                 back.mobility.model == MobilityModel::None);
    EXPECT_EQ(NetworkSpec::fromConfig(
                  li::Config::fromString("cells=2x2"))
                  .mobility.model,
              MobilityModel::None);

    // Mobility only drives the multi-cell engine.
    EXPECT_EXIT(NetworkSpec::fromConfig(
                    li::Config::fromString("mobility=waypoint")),
                testing::ExitedWithCode(1),
                "multi-cell key 'mobility' has no effect without "
                "a cell grid");
    EXPECT_EXIT(NetworkSpec::fromConfig(
                    li::Config::fromString("churn_rate=0.01")),
                testing::ExitedWithCode(1),
                "multi-cell key 'churn_rate' has no effect");
    EXPECT_EXIT(NetworkSpec::fromConfig(
                    li::Config::fromString("speed_mps=10")),
                testing::ExitedWithCode(1),
                "multi-cell key 'speed_mps' has no effect");
    // Malformed values die naming the constraint.
    EXPECT_EXIT(NetworkSpec::fromConfig(li::Config::fromString(
                    "cells=2x2,mobility=teleport")),
                testing::ExitedWithCode(1),
                "unknown mobility model 'teleport' "
                "\\(none\\|line\\|orbit\\|waypoint\\)");
    EXPECT_EXIT(NetworkSpec::fromConfig(li::Config::fromString(
                    "cells=2x2,churn_rate=1.5")),
                testing::ExitedWithCode(1),
                "churn_rate must be in \\[0,1\\)");
    EXPECT_EXIT(NetworkSpec::fromConfig(li::Config::fromString(
                    "cells=2x2,speed_mps=0")),
                testing::ExitedWithCode(1),
                "speed_mps must be > 0");
    EXPECT_EXIT(NetworkSpec::fromConfig(li::Config::fromString(
                    "cells=2x2,handover_hyst_db=-1")),
                testing::ExitedWithCode(1),
                "handover_hyst_db must be >= 0");
    // Misspellings stay fatal like every other key.
    EXPECT_EXIT(NetworkSpec::fromConfig(li::Config::fromString(
                    "cells=2x2,mobillity=line")),
                testing::ExitedWithCode(1),
                "unknown NetworkSpec key 'mobillity'");
}

TEST(NetworkSpecStrict, OutOfRangeValuesExitNamingTheKey)
{
    // Each value here used to abort in a constructor assert or be
    // narrowed silently (users=4294967297 ran one user, scrambler
    // seed 300 ran seed 44). The spec boundary now rejects it: exit
    // code 1 and the key named.
    const struct {
        const char *spec;
        const char *key;
    } cases[] = {
        {"users=0", "users"},
        {"users=4294967297", "users"},
        {"users=1048577", "users"},
        {"arq_window=2049", "arq_window"},
        {"payload_bits=32761", "payload_bits"},
        {"cells=46341x46341", "cells"},
        {"cells=99999999999999999999x2", "cells"},
        {"cells=3", "cells"},
        {"cells=2x2,queue_limit=1048577", "queue_limit"},
        {"rate=9", "rate"},
        {"arq_window=0", "arq_window"},
        {"arq_max_attempts=-1", "arq_max_attempts"},
        {"doppler_hz=-5", "doppler_hz"},
        {"frame_interval_us=0", "frame_interval_us"},
        {"pber_lo=-1", "pber_lo"},
        {"pber_lo=1e-3", "pber_lo"},
        {"reps=0", "reps"},
        {"arrival_prob=2", "arrival_prob"},
        {"snr_spread_db=-1", "snr_spread_db"},
        {"payload_bits=0", "payload_bits"},
        {"link.scrambler_seed=300", "scrambler_seed"},
        {"link.scrambler_seed=0", "scrambler_seed"},
        {"link.soft_width=1", "soft_width"},
        {"link.host_mhz=0", "host_mhz"},
        {"cells=2x2,cell_spacing_m=0", "cell_spacing_m"},
        {"cells=2x2,cell_radius_m=0", "cell_radius_m"},
        {"cells=2x2,min_distance_m=-1", "min_distance_m"},
        {"cells=2x2,min_distance_m=300", "min_distance_m"},
        {"cells=2x2,ref_distance_m=0", "ref_distance_m"},
        {"cells=2x2,pathloss_exp=-1", "pathloss_exp"},
        {"cells=2x2,shadow_sigma_db=-1", "shadow_sigma_db"},
        {"cells=2x2,queue_limit=0", "queue_limit"},
        {"cells=2x2,pf_horizon=0", "pf_horizon"},
        {"cells=2x2,on_slots=0", "on_slots"},
        {"cells=2x2,off_slots=0", "off_slots"},
        {"cells=2x2,traffic_load=100", "traffic_load"},
        {"cells=2x2,control_rate=100", "control_rate"},
        {"cells=2x2,checkpoint_resume=1", "checkpoint_resume"},
        {"net_seed=99999999999999999999999", "net_seed"},
    };
    for (const auto &c : cases)
        EXPECT_EXIT(NetworkSpec::fromConfig(li::Config::fromString(c.spec)),
                    testing::ExitedWithCode(1), c.key)
            << c.spec;
    // The edges of each range are accepted.
    const NetworkSpec edges = NetworkSpec::fromConfig(li::Config::fromString(
        "arrival_prob=1,arq_max_attempts=0,fidelity_refresh_period=0,"
        "link.scrambler_seed=127,users=1048576,arq_window=2048,"
        "payload_bits=32760"));
    EXPECT_EQ(edges.link.rx.scramblerSeed, 127);
    EXPECT_EQ(edges.fidelity.refreshPeriod, 0u);
    EXPECT_EQ(edges.numUsers, 1 << 20);
    EXPECT_EQ(edges.arqWindow, 2048);
    EXPECT_EQ(edges.link.payloadBits, 32760u);
    EXPECT_EQ(NetworkSpec::fromConfig(
                  li::Config::fromString("cells=46340x46340"))
                  .topology.numCells(),
              46340 * 46340);
}

TEST(ScenarioDocs, ScenariosDocCoversExactlyTheAcceptedKeys)
{
    // docs/SCENARIOS.md documents every accepted config key in
    // "## ... keys" tables whose first column is the backticked key
    // name; the NetworkSpec tables sit under "Common keys",
    // "Single-cell keys" and "Multi-cell keys" paragraphs, and each
    // channel's and decoder's under a "### channel=<name>" or
    // "### decoder=<name>" heading. This walk keeps the reference
    // and the parsers in lockstep -- a key added to one without the
    // other, or documented under the wrong engine or implementation,
    // fails here.
    std::ifstream in(std::string(WILIS_SOURCE_DIR) +
                     "/docs/SCENARIOS.md");
    ASSERT_TRUE(in.good()) << "docs/SCENARIOS.md missing";
    std::map<std::string, std::set<std::string>> documented;
    std::string section;
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("## ", 0) == 0)
            section = line.find("keys") != std::string::npos
                          ? line.substr(3)
                          : "";
        for (const char *scope : {"Common", "Single-cell", "Multi-cell"})
            if (!section.empty() && line.rfind(scope, 0) == 0)
                section = std::string("NetworkSpec ") + scope;
        if (!section.empty() && line.rfind("### ", 0) == 0)
            section = line.substr(4);
        if (section.empty() || line.rfind("| `", 0) != 0)
            continue;
        const size_t end = line.find('`', 3);
        ASSERT_NE(end, std::string::npos) << line;
        documented[section].insert(line.substr(3, end - 3));
    }
    const auto asSet = [](const std::vector<std::string> &keys) {
        return std::set<std::string>(keys.begin(), keys.end());
    };
    std::map<std::string, std::set<std::string>> accepted = {
        {"ScenarioSpec keys", asSet(scenarioSpecKeys())},
        {"NetworkSpec Common", asSet(networkSpecKeys(KeyScope::Any))},
        {"NetworkSpec Single-cell",
         asSet(networkSpecKeys(KeyScope::SingleCell))},
        {"NetworkSpec Multi-cell",
         asSet(networkSpecKeys(KeyScope::MultiCell))},
    };
    for (const Implementation &impl : allImplementations())
        accepted[impl.kind + "=" + impl.name] = asSet(impl.keys);
    EXPECT_EQ(documented, accepted);
    EXPECT_EQ(networkSpecKeys().size(),
              accepted.at("NetworkSpec Common").size() +
                  accepted.at("NetworkSpec Single-cell").size() +
                  accepted.at("NetworkSpec Multi-cell").size());
}

namespace {

/** Comma-joined key list, as data/golden_spec_configs.txt has it. */
std::string
joinKeys(const std::vector<std::string> &keys)
{
    std::string out;
    for (const std::string &k : keys)
        out += (out.empty() ? "" : ",") + k;
    return out;
}

} // namespace

TEST(ScenarioGolden, CanonicalStringsMatchTheCommittedGolden)
{
    std::ifstream in(std::string(WILIS_SOURCE_DIR) +
                     "/data/golden_spec_configs.txt");
    ASSERT_TRUE(in.good()) << "data/golden_spec_configs.txt missing";
    std::set<std::string> presets_seen;
    int checked = 0;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        std::string kind, arg, what, expected;
        fields >> kind >> arg;
        if (kind == "keys") {
            fields >> expected;
            EXPECT_EQ(joinKeys(arg == "scenario" ? scenarioSpecKeys()
                                                 : networkSpecKeys()),
                      expected)
                << arg;
            ++checked;
            continue;
        }
        fields >> what >> expected;
        std::string got;
        if (kind == "scenario") {
            ASSERT_EQ(what, "config") << line;
            got = parseScenarioSpecArg(arg).toConfig().toString();
        } else {
            ASSERT_EQ(kind, "network") << line;
            const NetworkSpec s = parseNetworkSpecArg(arg);
            got = what == "config" ? s.toConfig().toString()
                                   : s.fingerprint();
        }
        EXPECT_EQ(got, expected) << kind << " " << arg << " " << what;
        presets_seen.insert(arg);
        ++checked;
    }
    EXPECT_EQ(checked, 39);
    // Every preset row has a golden line, so a new preset cannot
    // land without pinning its canonical string.
    for (const std::string &name : scenarioPresetNames())
        EXPECT_TRUE(presets_seen.count(name)) << name;
    for (const std::string &name : networkPresetNames())
        EXPECT_TRUE(presets_seen.count(name)) << name;
}

TEST(ScenarioPresetsDeath, UnknownPresetListsTheSortedNames)
{
    const auto known = [](const std::vector<std::string> &names) {
        EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
        std::string out;
        for (const std::string &n : names)
            out += (out.empty() ? "" : ", ") + n;
        return "\\(known: " + out + "\\)";
    };
    EXPECT_FALSE(hasScenarioPreset("no-such-preset"));
    EXPECT_FALSE(hasNetworkPreset("no-such-preset"));
    EXPECT_DEATH(scenarioPreset("no-such-preset"),
                 "no scenario preset 'no-such-preset' " +
                     known(scenarioPresetNames()));
    EXPECT_DEATH(parseNetworkSpecArg("no-such-preset,users=4"),
                 "no network preset 'no-such-preset' " +
                     known(networkPresetNames()));
}

TEST(ScenarioSpec, FluentHelpersDoNotMutateOriginal)
{
    ScenarioSpec base;
    ScenarioSpec derived = base.withRate(7)
                               .withChannel("rayleigh")
                               .withSnrDb(3.0)
                               .withPayloadBits(64);
    EXPECT_EQ(base.rate, 4);
    EXPECT_EQ(base.channel, "awgn");
    EXPECT_EQ(derived.rate, 7);
    EXPECT_EQ(derived.channel, "rayleigh");
    EXPECT_DOUBLE_EQ(derived.snrDb(), 3.0);
    EXPECT_EQ(derived.payloadBits, 64u);
}

TEST(ScenarioSpec, LabelNamesEveryAxis)
{
    ScenarioSpec s = ScenarioSpec().withRate(1).withSnrDb(7.5);
    s.payloadBits = 333;
    std::string label = s.label();
    EXPECT_NE(label.find("r1"), std::string::npos);
    EXPECT_NE(label.find("awgn"), std::string::npos);
    EXPECT_NE(label.find("7.5"), std::string::npos);
    EXPECT_NE(label.find("333"), std::string::npos);
}

TEST(ScenarioPresets, PresetsRunEndToEnd)
{
    // Every built-in preset must instantiate a working transceiver.
    for (const std::string &name : scenarioPresetNames()) {
        ScenarioSpec s = scenarioPreset(name);
        s.payloadBits = 200;
        Testbench tb(s);
        sim::FrameResult res = tb.runFrame(s.payloadBits, 0);
        EXPECT_EQ(res.txPayload.size(), 200u) << name;
        EXPECT_EQ(res.rx.payload.size(), 200u) << name;
    }
}

/**
 * Check @p table against its vocabulary: @p names are the canonical
 * names in enum order, each alias parses to the value of the
 * canonical name paired with it, and @p unknown dies naming the noun
 * and the canonical names.
 */
template <typename E, std::size_t N>
void
expectNameTable(const NameTable<E, N> &table,
                const std::vector<std::string> &names,
                const std::vector<std::pair<std::string, std::string>>
                    &aliases,
                const std::string &unknown)
{
    SCOPED_TRACE(std::string(table.noun));
    ASSERT_EQ(table.values, names.size());
    ASSERT_EQ(N, names.size() + aliases.size());
    for (size_t i = 0; i < names.size(); ++i) {
        const auto e = static_cast<E>(i);
        EXPECT_EQ(table.name(e), names[i]);
        EXPECT_EQ(table.parse(names[i]), e);
    }
    EXPECT_EQ(table.name(static_cast<E>(names.size())), "?");
    for (const auto &[alias, canonical] : aliases)
        EXPECT_EQ(table.parse(alias), table.parse(canonical)) << alias;
    EXPECT_FALSE(table.find(unknown));
    std::string valid;
    for (const std::string &n : names)
        valid += (valid.empty() ? "" : "\\|") + n;
    EXPECT_EXIT(table.parse(unknown), testing::ExitedWithCode(1),
                "unknown " + std::string(table.noun) + " '" + unknown +
                    "' \\(" + valid + "\\)");
}

TEST(NameTables, EveryNameRoundTripsAndUnknownNamesDie)
{
    expectNameTable(mac::kSchedulerKindNames,
                    {"round_robin", "proportional_fair"},
                    {{"rr", "round_robin"}, {"pf", "proportional_fair"}},
                    "fifo");
    expectNameTable(mac::kContentionModeNames, {"none", "fixed"}, {},
                    "csma");
    expectNameTable(mac::kTrafficKindNames,
                    {"full_buffer", "poisson", "onoff"}, {}, "bursty");
    expectNameTable(mac::kTrafficClassNames, {"ctrl", "data"}, {},
                    "control");
    expectNameTable(mac::kQdiscKindNames,
                    {"fifo", "priority", "drop_head"},
                    {{"strict_priority", "priority"}}, "weird");
    expectNameTable(kFidelityModeNames, {"full", "analytic", "auto"}, {},
                    "hybrid");
    expectNameTable(kMobilityModelNames,
                    {"none", "line", "orbit", "waypoint"}, {},
                    "manhattan");
    expectNameTable(mac::kArqModeNames, {"stopwait", "selective"},
                    {{"stop-and-wait", "stopwait"},
                     {"selective-repeat", "selective"}},
                    "go-back-n");
    expectNameTable(mac::kPacketEventNames,
                    {"enq", "qdrop", "grant", "tx", "ack", "expire",
                     "ho", "join", "leave"},
                    {}, "retx");
    expectNameTable(kArrivalModelNames, {"full", "bernoulli"}, {},
                    "sometimes");
    expectNameTable(phy::kModulationNames,
                    {"BPSK", "QPSK", "QAM-16", "QAM-64"}, {}, "QAM-256");
    expectNameTable(phy::kCodeRateNames, {"1/2", "2/3", "3/4"}, {},
                    "5/6");
    // "auto" is not a backend: the WILIS_KERNEL_BACKEND reader keeps
    // the widest supported one for it.
    expectNameTable(kernels::kBackendNames, {"scalar", "avx2"}, {},
                    "sse4.2");
    EXPECT_FALSE(kernels::kBackendNames.find("auto"));
    EXPECT_STREQ(kernels::backendName(kernels::Backend::Avx2), "avx2");
}
