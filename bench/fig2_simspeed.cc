/**
 * @file
 * Figure 2 reproduction: simulation speeds of the eight 802.11a/g
 * rates under the co-simulation arrangement.
 *
 * Three views are reported:
 *  1. the paper's published numbers (reference),
 *  2. the analytic co-simulation model evaluated with the paper's
 *     platform parameters (35 MHz FPGA, 700 MB/s FSB, software AWGN
 *     channel at ~6.9 Msamples/s on a quad-core Xeon) -- this is the
 *     row the shape claim rests on,
 *  3. this host's measured speeds: the software channel throughput
 *     measured live, fed into the same model, plus the raw
 *     full-pipeline (tx+channel+rx) simulation speed of the kernels
 *     over AWGN and, at one rate, over Rayleigh fading.
 *
 * Also reports the link-bandwidth accounting of section 3 (~55 MB/s
 * of 700 MB/s used => the software channel, not the link, is the
 * bottleneck).
 */

#include <cstdio>
#include <string>

#include "bench_util.hh"
#include "common/cpu_features.hh"
#include "common/kernels.hh"
#include "common/logging.hh"
#include "common/table.hh"
#include "platform/cosim.hh"
#include "sim/li_transceiver.hh"
#include "sim/sweep.hh"

using namespace wilis;
using namespace wilis::bench;

namespace {

// Figure 2 as published.
const double kPaperMbps[phy::kNumRates] = {2.033, 2.953, 4.040,
                                           6.036, 8.483, 12.725,
                                           15.960, 22.244};

double
measureHostSimSpeed(phy::RateIndex rate, std::uint64_t bits,
                    kernels::Backend backend,
                    const std::string &channel = "awgn")
{
    // This bench's whole purpose is backend comparison, so select
    // the table directly, whatever WILIS_KERNEL_BACKEND says.
    if (!kernels::setBackend(backend))
        wilis_fatal("backend %s unsupported on this host",
                    kernels::backendName(backend));
    sim::ScenarioSpec cfg;
    cfg.rate = rate;
    cfg.rx.decoder = "viterbi";
    cfg.channel = channel;
    cfg.channelCfg = li::Config::fromString("snr_db=10,seed=7");
    cfg.payloadBits = 1704;
    std::uint64_t packets = bits / cfg.payloadBits + 1;
    Stopwatch sw;
    ErrorStats s = sim::measureBer(cfg, packets, 0);
    return static_cast<double>(s.bits) / sw.seconds() / 1e6;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string json_path = jsonPathFromArgs(argc, argv);
    JsonReport report("fig2_simspeed");
    const kernels::Backend best = kernels::availableBackends().back();
    const std::string best_backend = kernels::backendName(best);
    if (std::getenv("WILIS_KERNEL_BACKEND"))
        std::printf("note: WILIS_KERNEL_BACKEND is ignored here -- "
                    "this bench selects backends explicitly\n");
    report.meta("backend", best_backend);
    report.meta("cpu", cpu::featureString());
    report.meta("bench_scale", strprintf("%g", benchScale()));

    banner("Figure 2: simulation speeds of the 802.11a/g rates");

    // Host-measured software channel throughput (the paper's
    // bottleneck component), single- and multi-threaded.
    li::Config awgn_cfg = li::Config::fromString("snr_db=10,seed=1");
    double host_msps_1t =
        measureChannelThroughputMsps("awgn", awgn_cfg, 0.2);
    li::Config awgn_mt = li::Config::fromString(
        "snr_db=10,seed=1,threads=0");
    double host_msps_mt =
        measureChannelThroughputMsps("awgn", awgn_mt, 0.2);

    platform::CosimModel paper_model; // paper parameters
    platform::CosimModel host_model = paper_model;
    host_model.swChannelMsps = host_msps_mt;

    Table t({"Modulation", "Paper (Mb/s)", "Model (Mb/s)", "Model %",
             "Host co-sim (Mb/s)", "Host kernel (Mb/s)", "Kernel %"});
    std::uint64_t bits = scaled(400000, 50000);
    for (int r = 0; r < phy::kNumRates; ++r) {
        const phy::RateParams &rp = phy::rateTable(r);
        double model = paper_model.simSpeedMbps(rp);
        double host_cosim = host_model.simSpeedMbps(rp);
        double kernel = measureHostSimSpeed(r, bits, best);
        report.metric(strprintf("sim_speed_r%d_mbps", r), kernel,
                      "Mb/s");
        t.addRow({rp.name(),
                  strprintf("%.3f (%.1f%%)", kPaperMbps[r],
                            100.0 * kPaperMbps[r] / rp.lineRateMbps),
                  strprintf("%.3f", model),
                  strprintf("%.1f%%",
                            100.0 * model / rp.lineRateMbps),
                  strprintf("%.3f", host_cosim),
                  strprintf("%.3f", kernel),
                  strprintf("%.1f%%",
                            100.0 * kernel / rp.lineRateMbps)});
    }
    t.print();
    report.metric("channel_msps_1t", host_msps_1t, "Msamples/s");

    // The same full pipeline over the 20 Hz Rayleigh channel: a
    // Jakes sum per OFDM symbol in the channel and one in the
    // receiver's CSI. Gates the fading receiver's cost per symbol.
    const double rayleigh_mbps =
        measureHostSimSpeed(1, bits, best, "rayleigh");
    report.metric("sim_speed_rayleigh_r1_mbps", rayleigh_mbps, "Mb/s");
    std::printf("full pipeline over Rayleigh fading, %s: %.3f Mb/s\n",
                phy::rateTable(1).name().c_str(), rayleigh_mbps);
    report.metric("channel_msps_mt", host_msps_mt, "Msamples/s");

    // SIMD kernel backend A/B: the same full pipeline (tx + channel
    // + rx) with the scalar reference kernels versus the widest
    // backend the host supports. Backends are bit-exact, so this
    // ratio is pure execution speed -- the per-link cost reduction
    // that lets scenario sweeps and dense cells scale.
    banner(strprintf("SIMD kernel backend A/B (scalar vs %s)",
                     best_backend.c_str()));
    Table st({"Modulation", "scalar (Mb/s)",
              best_backend + " (Mb/s)", "speedup"});
    for (int r : {1, 4, 7}) {
        const phy::RateParams &rp = phy::rateTable(r);
        double scalar_mbps =
            measureHostSimSpeed(r, bits, kernels::Backend::Scalar);
        double simd_mbps = measureHostSimSpeed(r, bits, best);
        double speedup =
            scalar_mbps > 0.0 ? simd_mbps / scalar_mbps : 0.0;
        report.metric(strprintf("sim_speed_scalar_r%d_mbps", r),
                      scalar_mbps, "Mb/s");
        report.metric(strprintf("simd_speedup_r%d", r), speedup,
                      "x");
        st.addRow({rp.name(), strprintf("%.3f", scalar_mbps),
                   strprintf("%.3f", simd_mbps),
                   strprintf("%.2fx", speedup)});
    }
    st.print();

    banner("Section 3: bandwidth accounting");
    std::printf("software channel throughput (1 thread):   %.2f "
                "Msamples/s\n",
                host_msps_1t);
    std::printf("software channel throughput (all cores):  %.2f "
                "Msamples/s\n",
                host_msps_mt);
    std::printf("paper-model link utilization: %.1f MB/s of %.0f "
                "MB/s available\n",
                paper_model.linkUtilizationMBps(),
                platform::CosimModel::kLinkMBps);
    std::printf("=> the software channel, not the link, is the "
                "bottleneck (as in the paper)\n");

    banner("Cycle-accurate LI pipeline: modeled FPGA throughput");
    // What the 35 MHz streaming pipeline alone could sustain,
    // measured on the cycle-counted LI transceiver (the channel is
    // excluded here; with the software channel attached the Fig. 2
    // bottleneck applies).
    Table lt({"Modulation", "FPGA pipeline (Mb/s)", "x line rate"});
    for (int r = 0; r < phy::kNumRates; ++r) {
        sim::ScenarioSpec spec;
        spec.rate = r;
        spec.rx.decoder = "viterbi";
        spec.channelCfg = li::Config::fromString("snr_db=30,seed=1");
        sim::LiTransceiver t(spec);
        SplitMix64 rng(static_cast<std::uint64_t>(r));
        BitVec payload(1704);
        for (auto &b : payload)
            b = rng.nextBit();
        sim::LiPacketResult res = t.runPacket(payload, 0);
        double seconds =
            static_cast<double>(res.basebandCycles) / 35e6;
        double mbps = static_cast<double>(payload.size()) / seconds /
                      1e6;
        const phy::RateParams &rp = phy::rateTable(r);
        lt.addRow({rp.name(), strprintf("%.2f", mbps),
                   strprintf("%.2fx", mbps / rp.lineRateMbps)});
    }
    lt.print();
    std::printf(
        "low/mid rates clear their line rates outright; the top "
        "rates land at ~0.7x in this per-packet\nmeasurement because "
        "the modeled decoder collects the whole block before "
        "emitting (streaming\nhardware overlaps the two, recovering "
        "the gap). Either way the FPGA partition is far above\nthe "
        "~34%% co-simulation speeds of Figure 2: the software "
        "channel is the bottleneck, exactly the\npaper's finding.\n");
    report.writeIfRequested(json_path);
    return 0;
}
