/**
 * @file
 * Software channel scaling ablation (section 3): "computing noise
 * values for the AWGN channel dominates our software time, even
 * though the software is already multi-threaded... noise generation
 * alone was sufficient to saturate a quad core system." Measure the
 * AWGN channel's sample throughput against the worker thread count
 * and relate it to the line sample rate (20 Msamples/s).
 */

#include <cstdio>
#include <thread>

#include "bench_util.hh"
#include "common/logging.hh"
#include "common/table.hh"

using namespace wilis;
using namespace wilis::bench;

int
main(int argc, char **argv)
{
    const std::string json_path = jsonPathFromArgs(argc, argv);
    JsonReport report("abl_channel_threads");
    report.meta("bench_scale", strprintf("%g", benchScale()));

    banner("AWGN noise-generation throughput vs threads");

    const unsigned hw = std::thread::hardware_concurrency();
    std::printf("host cores: %u (paper: quad-core Xeon)\n\n", hw);

    double measure_secs = 0.3 * benchScale();
    Table t({"threads", "Msamples/s", "speedup", "% of 20 Msps line "
             "rate"});
    double base = 0.0;
    for (int threads : {1, 2, 4}) {
        li::Config cfg = li::Config::fromString(
            strprintf("snr_db=10,seed=1,threads=%d", threads));
        double msps =
            measureChannelThroughputMsps("awgn", cfg, measure_secs);
        if (threads == 1)
            base = msps;
        report.metric(strprintf("awgn_msps_t%d", threads), msps,
                      "Msamples/s");
        t.addRow({strprintf("%d", threads), strprintf("%.2f", msps),
                  strprintf("%.2fx", msps / base),
                  strprintf("%.1f%%", 100.0 * msps / 20.0)});
    }
    t.print();

    banner("Rayleigh fading channel (Jakes oscillators + AWGN)");
    for (int threads : {1, 2}) {
        li::Config cfg = li::Config::fromString(strprintf(
            "snr_db=10,doppler_hz=20,seed=1,threads=%d", threads));
        double msps =
            measureChannelThroughputMsps("rayleigh", cfg, measure_secs);
        report.metric(strprintf("rayleigh_msps_t%d", threads), msps,
                      "Msamples/s");
        std::printf("threads=%d: %.2f Msamples/s\n", threads, msps);
    }
    std::printf("\npaper context: the channel is the co-simulation "
                "bottleneck; this is why WiLIS keeps it in software "
                "but pushes everything else to the FPGA.\n");
    report.writeIfRequested(json_path);
    return 0;
}
