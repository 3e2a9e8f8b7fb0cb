/**
 * @file
 * Latency-insensitive batching ablation (sections 2 and 5): LI
 * decoupling lets WiLIS move data between the FPGA and the host in
 * large pipelined transfers and overlap all agents, which "increases
 * our throughput by approximately one order of magnitude" over a
 * lock-step (SCE-MI style) discipline that synchronizes on every
 * exchange. Sweep the batch size in both disciplines.
 */

#include <cstdio>

#include "bench_util.hh"
#include "common/logging.hh"
#include "common/table.hh"
#include "platform/cosim.hh"

using namespace wilis;
using namespace wilis::bench;

int
main()
{
    banner("LI batching vs lock-step co-simulation (QAM-16 1/2)");

    const phy::RateParams &rate = phy::rateTable(4);
    std::uint64_t packets = scaled(8, 2);

    Table t({"batch (samples)", "discipline", "sim speed (Mb/s)",
             "link transfers", "wall breakdown hw/sw/link (us)"});

    double li_best = 0.0;
    double lockstep_fine = 0.0;
    // batch=16 models fine-grained SCE-MI style clock gating; 80 is
    // one OFDM symbol per exchange.
    for (std::uint64_t batch : {16ull, 80ull, 512ull, 4096ull,
                                32768ull}) {
        for (bool decoupled : {true, false}) {
            platform::CosimModel m;
            m.batchSamples = batch;
            m.decoupled = decoupled;
            const platform::CosimRunStats s =
                m.run(rate, 1704, packets);
            t.addRow({strprintf("%llu",
                                static_cast<unsigned long long>(
                                    batch)),
                      decoupled ? "LI (overlapped)" : "lock-step",
                      strprintf("%.3f", s.simSpeedMbps()),
                      strprintf("%llu",
                                static_cast<unsigned long long>(
                                    s.transfers)),
                      strprintf("%.0f/%.0f/%.0f", s.hwUs, s.swUs,
                                s.linkUs)});
            if (decoupled)
                li_best = std::max(li_best, s.simSpeedMbps());
            if (!decoupled && batch == 16)
                lockstep_fine = s.simSpeedMbps();
        }
    }
    t.print();
    std::printf("\nLI (large pipelined transfers) vs fine-grained "
                "lock-step: %.1fx (paper: ~one order of magnitude)\n",
                li_best / lockstep_fine);
    return 0;
}
