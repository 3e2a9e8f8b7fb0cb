/**
 * @file
 * Config-file-driven simulation runner -- the AWB-style plug-n-play
 * workflow (WiLIS section 2) as a command-line tool: describe an
 * experiment in a key=value file, run it, get a report. No source
 * changes to swap any implementation. It is also the campaign
 * layer's worker binary: wilis_campaign spawns one
 * `wilis_cli --network ... --shard i/N` process per shard and merges
 * their reports (sim/campaign.hh).
 *
 * Link-experiment mode (the historical interface):
 *   ./build/wilis_cli experiment.cfg
 *   ./build/wilis_cli "rate=4,decoder=sova,snr_db=9,packets=200"
 *   ./build/wilis_cli rayleigh-fading,snr_db=10   (preset + tweaks)
 *
 * The argument is resolved by sim::parseScenarioSpecArg() -- a
 * config file, an inline key=value list, or a scenario preset with
 * optional overrides -- after the CLI peels off its own keys:
 *   packets     packets to simulate           [default 100]
 *   threads     worker threads (0=all)        [0]
 *   doppler_hz / num_taps                     (channel shorthands)
 *   block_len / traceback_l / traceback_k    (decoder shorthands)
 * Every other key is owned by the spec parser (rate, decoder,
 * channel, snr_db, payload_bits, channel.<k>, decoder.<k>, ...).
 *
 * Campaign-shard mode:
 *   ./build/wilis_cli --network <spec-arg> [--slots N] [--threads N]
 *                     [--shard I/N] [--report FILE] [--trace FILE]
 * runs this shard's replications of a NetworkSpec campaign through
 * sim::runCampaignShard() and (with --report) writes the shard's
 * RunReport JSON for the campaign driver to merge.
 */

#include <algorithm>
#include <climits>
#include <cstdio>
#include <iterator>
#include <string>

#include "common/logging.hh"
#include "common/table.hh"
#include "decode/soft_decoder.hh"
#include "sim/campaign.hh"
#include "sim/scenario.hh"
#include "sim/sweep.hh"
#include "synth/area.hh"

using namespace wilis;

namespace {

/** Keys the CLI consumes itself, peeled before the spec parser. */
const char *const kCliKeys[] = {
    "packets",     "threads",     "doppler_hz", "num_taps",
    "block_len",   "traceback_l", "traceback_k",
};

/**
 * Resolve a link-experiment argument the same way
 * sim::parseScenarioSpecArg() classifies it -- inline config,
 * config file, or "preset[,k=v,...]" -- into one flat config (the
 * preset head becomes a preset= entry), so the CLI-only keys can be
 * peeled off before the spec parser validates the rest.
 */
li::Config
resolveArgConfig(const std::string &arg)
{
    const size_t comma = arg.find(',');
    const std::string head = arg.substr(0, comma);
    if (head.find('=') == std::string::npos) {
        if (comma == std::string::npos &&
            !sim::hasScenarioPreset(head))
            return li::Config::fromFile(arg);
        li::Config cfg =
            comma == std::string::npos
                ? li::Config()
                : li::Config::fromString(arg.substr(comma + 1));
        cfg.set("preset", head);
        return cfg;
    }
    return li::Config::fromString(arg);
}

int
runLinkExperiment(int argc, char **argv)
{
    sim::ScenarioSpec defaults;
    defaults.rate = 2;
    defaults.payloadBits = 1704;
    defaults.channelCfg = li::Config::fromString("snr_db=8,seed=1");

    sim::ScenarioSpec spec = defaults;
    li::Config cli; // the CLI-only keys (packets, shorthands)
    if (argc > 1) {
        li::Config raw = resolveArgConfig(argv[1]);
        li::Config rest;
        for (const auto &kv : raw.entries()) {
            bool mine = false;
            for (const char *key : kCliKeys)
                mine = mine || kv.first == key;
            (mine ? cli : rest).set(kv.first, kv.second);
        }
        // Only CLI keys leaves nothing for the spec parser, which
        // would read an empty argument as a config file name.
        if (!rest.entries().empty())
            spec = sim::parseScenarioSpecArg(rest.toString(), defaults);
    } else {
        std::fprintf(stderr,
                     "usage: %s <config-file | key=value,... | "
                     "preset>\n"
                     "running the default experiment instead\n\n",
                     argv[0]);
    }

    // The CLI's historical shorthand keys forward into the spec's
    // sub-configs by hand; everything else went through the parser.
    for (const char *key : {"doppler_hz", "num_taps"}) {
        if (cli.has(key))
            spec.channelCfg.set(key, cli.getString(key));
    }
    for (const char *key :
         {"block_len", "traceback_l", "traceback_k"}) {
        if (cli.has(key))
            spec.rx.decoderCfg.set(key, cli.getString(key));
    }

    const std::uint64_t packets = cli.getUint64("packets", 100);
    const int threads =
        static_cast<int>(cli.getInt("threads", 0, 0, INT_MAX));

    std::printf("WiLIS experiment: %s, %s decoder, %s channel @ %.1f "
                "dB, %llu packets x %zu bits\n\n",
                phy::rateTable(spec.rate).name().c_str(),
                spec.rx.decoder.c_str(), spec.channel.c_str(),
                spec.snrDb(),
                static_cast<unsigned long long>(packets),
                spec.payloadBits);

    // BER + PER sweep on the zero-copy frame path; one accumulator
    // slot per worker the sweep will actually spawn.
    const size_t slots = static_cast<size_t>(
        sim::sweepWorkerCount(threads, packets));
    std::uint64_t packet_errors = 0;
    ErrorStats bits;
    {
        std::vector<ErrorStats> per_thread(slots);
        std::vector<std::uint64_t> pkt_err(slots, 0);
        sim::sweepFrames(
            spec, packets, threads,
            [&](int tid, const sim::FrameResult &res, std::uint64_t) {
                per_thread[static_cast<size_t>(tid)].bits +=
                    res.txPayload.size();
                per_thread[static_cast<size_t>(tid)].errors +=
                    res.bitErrors;
                pkt_err[static_cast<size_t>(tid)] += !res.ok;
            });
        for (size_t i = 0; i < per_thread.size(); ++i) {
            bits.merge(per_thread[i]);
            packet_errors += pkt_err[i];
        }
    }

    Table t({"metric", "value"});
    t.addRow({"scenario", spec.label()});
    t.addRow({"bits simulated", strprintf("%llu",
                                          static_cast<unsigned long long>(
                                              bits.bits))});
    t.addRow({"bit errors", strprintf("%llu",
                                      static_cast<unsigned long long>(
                                          bits.errors))});
    t.addRow({"BER", strprintf("%.3e", bits.ber())});
    t.addRow({"PER", strprintf("%.3f",
                               static_cast<double>(packet_errors) /
                                   static_cast<double>(packets))});

    // Architecture summary for the selected decoder.
    auto dec = decode::makeDecoder(spec.rx.decoder,
                                   spec.rx.decoderCfg);
    t.addRow({"decoder latency (cycles)",
              strprintf("%d", dec->pipelineLatencyCycles())});
    t.addRow({"decoder latency @60 MHz (us)",
              strprintf("%.2f",
                        synth::latencyUs(dec->pipelineLatencyCycles(),
                                         60.0))});
    synth::DecoderAreaParams ap;
    ap.softWidth = spec.rx.demapper.softWidth;
    ap.window = static_cast<int>(
        cli.getInt("block_len", spec.rx.decoderCfg.getInt(
                                    "block_len", 64)));
    std::string area_name = spec.rx.decoder == "bcjr-logmap"
                                ? "bcjr"
                                : spec.rx.decoder;
    t.addRow({"modeled area (LUTs)",
              strprintf("%ld",
                        synth::decoderTotal(area_name, ap).luts)});
    t.print();
    return 0;
}

int
runCampaignShardMode(int argc, char **argv)
{
    // Every flag value, keyed by the flag: li::Config's strict
    // getters make a malformed or out-of-range value fatal, naming
    // the flag.
    const char *const value_flags[] = {"--network", "--slots",
                                       "--threads", "--shard",
                                       "--report",  "--trace"};
    li::Config flags;
    for (int a = 1; a < argc; ++a) {
        const std::string flag = argv[a];
        if (std::find(std::begin(value_flags), std::end(value_flags),
                      flag) == std::end(value_flags))
            wilis_fatal("unknown campaign flag '%s'", flag.c_str());
        if (a + 1 >= argc)
            wilis_fatal("%s needs an argument", flag.c_str());
        flags.set(flag, argv[++a]);
    }
    if (!flags.has("--network"))
        wilis_fatal("--network <spec-arg> is required");
    const std::string spec_arg = flags.getString("--network");

    sim::RunRequest req;
    req.slots = flags.getUint64("--slots", req.slots);
    req.threads =
        static_cast<int>(flags.getInt("--threads", 0, 0, INT_MAX));
    if (flags.has("--shard")) {
        const std::string v = flags.getString("--shard");
        const size_t slash = v.find('/');
        if (slash == std::string::npos)
            wilis_fatal("--shard wants I/N, got '%s'", v.c_str());
        li::Config shard;
        shard.set("--shard I", v.substr(0, slash));
        shard.set("--shard N", v.substr(slash + 1));
        req.shardCount =
            static_cast<int>(shard.getInt("--shard N", 1, 1, INT_MAX));
        req.shardIndex = static_cast<int>(
            shard.getInt("--shard I", 0, 0, req.shardCount - 1));
    }
    req.reportFile = flags.getString("--report");
    req.traceFile = flags.getString("--trace");
    req.spec = sim::parseNetworkSpecArg(spec_arg);

    const sim::RunReport rep = sim::runCampaignShard(req);
    std::uint64_t delivered = 0;
    std::uint64_t goodput_bits = 0;
    for (const auto &u : rep.units) {
        delivered += u.stats.delivered;
        goodput_bits += u.stats.goodputBits;
    }
    std::printf("campaign shard %d/%d: %zu/%d units, %llu slots, "
                "%llu frames delivered, %llu payload bits\n",
                req.shardIndex, req.shardCount, rep.units.size(),
                rep.unitsTotal,
                static_cast<unsigned long long>(rep.slots),
                static_cast<unsigned long long>(delivered),
                static_cast<unsigned long long>(goodput_bits));
    if (!req.reportFile.empty())
        std::printf("report -> %s\n", req.reportFile.c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    for (int a = 1; a < argc; ++a)
        if (std::string(argv[a]) == "--network")
            return runCampaignShardMode(argc, argv);
    return runLinkExperiment(argc, argv);
}
