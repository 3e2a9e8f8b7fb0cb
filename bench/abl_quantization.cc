/**
 * @file
 * Demapper quantization ablation (section 4.1): once the SNR and
 * modulation scale factors are dropped, the decoder's *decisions*
 * survive aggressive input quantization (3-8 bits instead of
 * 23-28), because Viterbi-family decisions depend only on relative
 * metric order. BER estimation, however, needs the magnitudes:
 * check how the fitted eq. 5 scale and estimator quality respond to
 * the input width.
 */

#include <cstdio>

#include "bench_util.hh"
#include "common/logging.hh"
#include "common/table.hh"
#include "sim/sweep.hh"
#include "softphy/softphy.hh"

using namespace wilis;
using namespace wilis::bench;

int
main()
{
    banner("Demapper soft width ablation (QPSK 1/2, AWGN 3 dB, "
           "BCJR)");

    std::uint64_t packets = scaled(250, 50);
    Table t({"soft width (bits)", "decoded BER", "fitted eq.5 scale",
             "scale x range"});
    for (int w : {3, 4, 5, 6, 8, 10}) {
        sim::ScenarioSpec cfg;
        cfg.rate = 2;
        cfg.rx.decoder = "bcjr";
        cfg.rx.demapper.softWidth = w;
        cfg.channelCfg = li::Config::fromString("snr_db=3,seed=55");
        cfg.payloadBits = 1704;
        ErrorStats s = sim::measureBer(cfg, packets, 0);

        // Calibrate at this width: scale shrinks as the hint range
        // grows, keeping scale x range (the true-LLR span) stable.
        softphy::CalibrationSpec spec;
        spec.rx = cfg.rx;
        spec.packets = packets;
        spec.payloadBits = 1704;
        spec.threads = 0;
        auto cal = softphy::measureLlrCurve(2, 3.0, spec);
        double scale = cal.fitScale();

        t.addRow({strprintf("%d", w), strprintf("%.3e", s.ber()),
                  strprintf("%.5f", scale),
                  strprintf("%.1f", scale * spec.llrMax())});
    }
    t.print();
    std::printf("\npaper: decode BER is already stable at 3-8 bit "
                "inputs (the decisions need only relative order); "
                "the estimator's scale must be recalibrated per "
                "width because magnitudes change.\n");
    return 0;
}
