/**
 * @file
 * SW-BCJR block-size ablation (section 4.3.2): the sliding-window
 * approximation "shows reasonable performance if block size n is
 * sufficiently large (larger than 32)", and section 4.4.3 adds that
 * growing past 64 buys nothing. Sweep n and report decoded BER at a
 * fixed noisy operating point, plus the latency and area each n
 * costs.
 */

#include <cstdio>

#include "bench_util.hh"
#include "common/logging.hh"
#include "common/table.hh"
#include "sim/sweep.hh"
#include "synth/area.hh"

using namespace wilis;
using namespace wilis::bench;

int
main()
{
    banner("SW-BCJR block size ablation (QPSK 1/2, AWGN 3 dB)");

    std::uint64_t packets = scaled(300, 60);
    Table t({"block n", "BER", "vs n=64", "latency (cycles)",
             "modeled regs"});

    double ber64 = 0.0;
    struct Row {
        int n;
        double ber;
    };
    std::vector<Row> rows;
    for (int n : {8, 16, 32, 64, 128}) {
        sim::ScenarioSpec cfg;
        cfg.rate = 2;
        cfg.rx.decoder = "bcjr";
        cfg.rx.decoderCfg =
            li::Config::fromString(strprintf("block_len=%d", n));
        cfg.channelCfg = li::Config::fromString("snr_db=3,seed=88");
        cfg.payloadBits = 1704;
        ErrorStats s = sim::measureBer(cfg, packets, 0);
        rows.push_back({n, s.ber()});
        if (n == 64)
            ber64 = s.ber();
    }
    for (const auto &r : rows) {
        synth::DecoderAreaParams p;
        p.window = r.n;
        t.addRow({strprintf("%d", r.n), strprintf("%.3e", r.ber),
                  ber64 > 0.0 ? strprintf("%.2fx", r.ber / ber64)
                              : "-",
                  strprintf("%d", 2 * r.n + 7),
                  strprintf("%ld",
                            synth::bcjrAreaReport(p)[0]
                                .area.registers)});
    }
    t.print();
    std::printf("\npaper: n >= 32 is required for reasonable "
                "performance; n > 64 gives no improvement while "
                "latency and buffers grow linearly.\n");
    return 0;
}
