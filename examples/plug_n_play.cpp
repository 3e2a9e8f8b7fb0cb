/**
 * @file
 * Plug-n-play (the AWB workflow, WiLIS section 2): build the same
 * receiver with every registered decoder implementation and the same
 * testbench with every registered channel -- no source changes, just
 * configuration strings -- and compare them.
 *
 * Run: ./build/examples/plug_n_play [snr_db]
 */

#include <cstdio>
#include <cstdlib>

#include "common/table.hh"
#include "decode/soft_decoder.hh"
#include "sim/sweep.hh"
#include "synth/area.hh"

using namespace wilis;

int
main(int argc, char **argv)
{
    double snr_db = argc > 1 ? std::atof(argv[1]) : 3.0;

    // What's on the shelf?
    auto decoders = decode::DecoderRegistry::global().names();
    auto channels = channel::ChannelRegistry::global().names();
    std::printf("registered decoders: ");
    for (const auto &n : decoders)
        std::printf("%s ", n.c_str());
    std::printf("\nregistered channels: ");
    for (const auto &n : channels)
        std::printf("%s ", n.c_str());
    std::printf("\n\n");

    // Swap the decoder slot by name: one config line per variant.
    Table t({"decoder", "BER (QPSK 1/2)", "latency (cycles)",
             "modeled LUTs", "soft output"});
    for (const auto &name : decoders) {
        sim::ScenarioSpec cfg;
        cfg.rate = 2;
        cfg.rx.decoder = name;
        cfg.channelCfg = li::Config::fromString(
            "snr_db=" + std::to_string(snr_db) + ",seed=5");
        cfg.payloadBits = 1704;
        ErrorStats s = sim::measureBer(cfg, 60, 0);

        auto dec = decode::makeDecoder(name);
        synth::DecoderAreaParams p;
        long luts = (name == "bcjr-logmap")
                        ? synth::decoderTotal("bcjr", p).luts
                        : synth::decoderTotal(name, p).luts;
        t.addRow({name, strprintf("%.3e", s.ber()),
                  strprintf("%d", dec->pipelineLatencyCycles()),
                  strprintf("%ld", luts),
                  dec->producesSoftOutput() ? "yes" : "no"});
    }
    t.print();

    // Swap the channel the same way.
    std::printf("\nsame receiver, different channels:\n");
    for (const auto &name : channels) {
        sim::ScenarioSpec cfg;
        cfg.rate = 2;
        cfg.rx.decoder = "bcjr";
        cfg.channel = name;
        cfg.channelCfg = li::Config::fromString(
            "snr_db=" + std::to_string(snr_db) + ",seed=5");
        cfg.payloadBits = 1704;
        ErrorStats s = sim::measureBer(cfg, 60, 0);
        std::printf("  %-10s BER %.3e\n", name.c_str(), s.ber());
    }
    return 0;
}
