/**
 * @file
 * SOVA traceback-length ablation (section 4.4.3): "we use a backward
 * path length of 64 for SOVA... increasing these values provides no
 * performance improvement." Sweep l = k and report BER, soft-output
 * quality (does the hint ordering hold), latency and area.
 */

#include <cstdio>

#include "bench_util.hh"
#include "common/logging.hh"
#include "common/table.hh"
#include "sim/sweep.hh"
#include "softphy/softphy.hh"
#include "synth/area.hh"

using namespace wilis;
using namespace wilis::bench;

int
main()
{
    banner("SOVA traceback length ablation (QPSK 1/2, AWGN 3 dB)");

    std::uint64_t packets = scaled(300, 60);
    Table t({"l = k", "BER", "latency (cycles)", "modeled LUTs"});
    for (int w : {8, 16, 32, 64, 128}) {
        sim::ScenarioSpec cfg;
        cfg.rate = 2;
        cfg.rx.decoder = "sova";
        cfg.rx.decoderCfg = li::Config::fromString(
            strprintf("traceback_l=%d,traceback_k=%d", w, w));
        cfg.channelCfg = li::Config::fromString("snr_db=3,seed=88");
        cfg.payloadBits = 1704;
        ErrorStats s = sim::measureBer(cfg, packets, 0);

        synth::DecoderAreaParams p;
        p.window = w;
        t.addRow({strprintf("%d", w), strprintf("%.3e", s.ber()),
                  strprintf("%d", 2 * w + 12),
                  strprintf("%ld",
                            synth::sovaAreaReport(p)[0].area.luts)});
    }
    t.print();
    std::printf("\npaper: performance saturates by l = k = 64; "
                "longer tracebacks only cost area and latency.\n");
    return 0;
}
