/**
 * @file
 * Figure 6 reproduction: actual per-packet BER vs the SoftPHY
 * estimator's predicted per-packet BER, QAM-16 1/2, 1704-bit
 * packets, AWGN with varying SNR.
 *
 * The paper's claims to verify:
 *  - predictions cluster around the ideal actual == predicted line,
 *  - a slight underestimation appears at high BERs (>= 1e-1), caused
 *    by the constant mid-band SNR adjustment (section 4.2): high
 *    BERs come from SNRs *below* the calibration constant, where the
 *    estimator under-reads the error probability.
 */

#include <cmath>
#include <cstdio>
#include <utility>
#include <vector>

#include "bench_util.hh"
#include "common/stats.hh"
#include "common/table.hh"
#include "sim/sweep.hh"
#include "softphy/softphy.hh"

using namespace wilis;
using namespace wilis::bench;

int
main()
{
    banner("Figure 6: actual vs predicted per-packet BER "
           "(QAM-16 1/2, AWGN, 1704-bit packets)");

    // Calibrate the estimator once at the mid-band SNR constant.
    softphy::CalibrationSpec spec;
    spec.rx.decoder = "bcjr";
    spec.payloadBits = 1704;
    spec.packets = scaled(400, 100);
    spec.threads = 0;
    softphy::BerTable table =
        calibrateTable(phy::Modulation::QAM16, spec);
    softphy::BerEstimator est;
    est.setTable(phy::Modulation::QAM16, table);
    std::printf("calibrated at %.1f dB, eq.5 scale %.4f\n",
                softphy::midBandSnrDb(phy::Modulation::QAM16),
                table.scale());

    // Sweep SNR so packets land across the predicted-PBER decades,
    // and bin (predicted, actual) pairs by predicted decade.
    const int kBins = 14; // decades 1e-7 .. 1e0, half-decade bins
    std::vector<RunningStats> actual_by_bin(kBins);
    std::vector<RunningStats> predicted_by_bin(kBins);

    auto bin_of = [&](double pber) {
        if (pber <= 0.0)
            return 0;
        double d = std::log10(pber) + 7.0; // -7 -> 0
        int b = static_cast<int>(d * 2.0);
        if (b < 0)
            b = 0;
        if (b >= kBins)
            b = kBins - 1;
        return b;
    };

    const std::uint64_t packets_per_snr = scaled(120, 30);
    std::vector<sim::ScenarioSpec> cells;
    for (double snr = 4.5; snr <= 11.01; snr += 0.5) {
        sim::ScenarioSpec cfg;
        cfg.rate = 4;
        cfg.rx = spec.rx;
        cfg.channelCfg = li::Config::fromString(
            strprintf("snr_db=%f,seed=606", snr));
        cells.push_back(cfg.withPayloadBits(1704));
    }
    // (predicted, actual) per packet, binned in (SNR, packet) order.
    for (const auto &[predicted, actual] : sim::sweepPackets(
             cells, packets_per_snr, 0,
             [&](size_t, std::uint64_t, const sim::FrameResult &res) {
                 return std::make_pair(
                     est.packetBer(phy::Modulation::QAM16, res.rx.soft),
                     static_cast<double>(res.bitErrors) / 1704.0);
             })) {
        const auto b = static_cast<size_t>(bin_of(predicted));
        actual_by_bin[b].add(actual);
        predicted_by_bin[b].add(predicted);
    }

    Table t({"predicted PBER (bin mean)", "packets", "actual mean",
             "actual stddev", "ratio act/pred"});
    for (int b = 0; b < kBins; ++b) {
        const auto &act = actual_by_bin[static_cast<size_t>(b)];
        const auto &pred = predicted_by_bin[static_cast<size_t>(b)];
        if (act.count() < 3)
            continue;
        double ratio = pred.mean() > 0.0
                           ? act.mean() / pred.mean()
                           : 0.0;
        t.addRow({strprintf("%.3e", pred.mean()),
                  strprintf("%llu", static_cast<unsigned long long>(
                                        act.count())),
                  strprintf("%.3e", act.mean()),
                  strprintf("%.3e", act.stddev()),
                  strprintf("%.2f", ratio)});
    }
    t.print();
    std::printf("\nideal line: ratio act/pred == 1.00; the paper "
                "reports clustering around the line with slight\n"
                "underestimation (ratio > 1) at PBER >= 1e-1 from "
                "the constant-SNR simplification.\n");
    return 0;
}
