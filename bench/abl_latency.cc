/**
 * @file
 * Latency ablation: the decoder pipeline latencies of sections
 * 4.3.1/4.3.2 (SOVA: l + k + 12, BCJR: 2n + 7 decoder cycles) across
 * window sizes, in microseconds at the 60 MHz decoder clock against
 * the 25 us 802.11a/g budget, and as charged by the streaming LI
 * transceiver: a 1704-bit rate-2 packet at the paper's clocks. The
 * transceiver's decoder-domain cycles minus the latency must be the
 * same for every window and decoder (exit 1 otherwise): the decoder
 * stage charges its decoder's own latency, cycle for cycle.
 */

#include <cstdio>
#include <optional>

#include "bench_util.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "common/table.hh"
#include "decode/soft_decoder.hh"
#include "sim/li_transceiver.hh"

using namespace wilis;
using namespace wilis::bench;
using namespace wilis::sim;

int
main(int argc, char **argv)
{
    const std::string json_path = jsonPathFromArgs(argc, argv);
    JsonReport report("abl_latency");
    report.meta("bench_scale", strprintf("%g", benchScale()));

    SplitMix64 rng(2);
    BitVec payload(1704);
    for (auto &b : payload)
        b = rng.nextBit();

    // Decoder-domain cycles beyond the latency; equal for all rows.
    std::optional<std::uint64_t> streaming;
    bool constant = true;
    // Appends to a row's cells the window's formula latency, in us
    // against the budget, and as the transceiver charges it.
    const auto charged = [&](const char *decoder, const std::string &cfg,
                             std::vector<std::string> cells) {
        ScenarioSpec spec;
        spec.rate = 2;
        spec.rx.decoder = decoder;
        spec.rx.decoderCfg = li::Config::fromString(cfg);
        const int latency =
            decode::makeDecoder(decoder, spec.rx.decoderCfg)
                ->pipelineLatencyCycles();
        const std::uint64_t cycles =
            LiTransceiver(spec).runPacket(payload, 0).decoderCycles;
        const std::uint64_t rest =
            cycles - static_cast<std::uint64_t>(latency);
        if (!streaming)
            streaming = rest;
        constant = constant && rest == *streaming;
        const double us = latency / spec.clocks.decoderMhz;
        cells.push_back(std::to_string(latency));
        cells.push_back(strprintf("%.2f", us));
        cells.push_back(us < 25.0 ? "yes" : "NO");
        cells.push_back(std::to_string(cycles));
        cells.push_back(std::to_string(rest));
        return cells;
    };

    banner("SOVA decoder latency: l + k + 12");
    Table sova({"l", "k", "formula (cycles)", "us @ 60 MHz",
                "fits 25 us budget", "transceiver cycles",
                "cycles - formula"});
    for (int w : {16, 32, 64, 128})
        sova.addRow(charged("sova",
                            strprintf("traceback_l=%d,traceback_k=%d", w, w),
                            {std::to_string(w), std::to_string(w)}));
    sova.print();

    banner("BCJR decoder latency: 2n + 7");
    Table bcjr({"n", "formula (cycles)", "us @ 60 MHz",
                "fits 25 us budget", "transceiver cycles",
                "cycles - formula"});
    for (int n : {16, 32, 64, 128, 256})
        bcjr.addRow(charged("bcjr", strprintf("block_len=%d", n),
                            {std::to_string(n)}));
    bcjr.print();

    std::printf("transceiver charges exactly the formula latency: %s\n",
                constant ? "yes" : "NO");
    report.writeIfRequested(json_path);
    return constant ? 0 : 1;
}
