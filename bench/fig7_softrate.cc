/**
 * @file
 * Figure 7 reproduction: SoftRate MAC rate selection quality under a
 * 20 Hz Rayleigh fading channel with 10 dB mean AWGN SNR, for the
 * BCJR- and SOVA-based SoftPHY implementations.
 *
 * Protocol (section 4.4.2): the transmitter observes the predicted
 * PBER the receiver attaches to each (modeled) acknowledgement; if
 * it falls outside the operating range the rate steps down/up. The
 * optimal rate is the highest rate that would have delivered this
 * packet error-free -- computable because the pseudo-random noise
 * model replays identical noise and fading at every candidate rate
 * (here: common_noise=true fixes the noise sequence across time as
 * well, making success a deterministic function of the fade level).
 *
 * Reported alongside the paper's three categories:
 *  - a "genie" row (chosen = previous packet's optimal): the ceiling
 *    any feedback controller can reach given how often the
 *    per-packet optimal rate itself moves in this channel, and
 *  - a "within +-1" column, since most misses are single-step lag.
 *
 * Claims preserved (see EXPERIMENTS.md for the gap discussion):
 *  - both decoders track the optimal rate (most packets exactly,
 *    nearly all within one step),
 *  - SOVA underselects more often than BCJR by a few percent,
 *  - overselection is rare and comparable for both.
 */

#include <cstdio>

#include "bench_util.hh"
#include "common/table.hh"
#include "mac/oracle.hh"
#include "mac/softrate.hh"
#include "softphy/softphy.hh"

using namespace wilis;
using namespace wilis::bench;

namespace {

const char *kChannelCfg =
    "snr_db=10,doppler_hz=20,seed=64222,packet_interval_us=200,"
    "common_noise=true,block_fading=true";

struct RunResult {
    mac::SelectionStats stats;
    std::uint64_t within_one = 0;
    std::uint64_t judged = 0;
};

RunResult
runSoftRate(const char *decoder, std::uint64_t packets,
            double pber_lo, double pber_hi)
{
    softphy::CalibrationSpec spec;
    spec.rx.decoder = decoder;
    spec.payloadBits = 1704;
    spec.packets = scaled(250, 60);
    spec.threads = 0;
    softphy::BerEstimator est = calibrateRateEstimator(spec);

    sim::ScenarioSpec base;
    base.rx = spec.rx;
    base.channel = "rayleigh";
    base.channelCfg = li::Config::fromString(kChannelCfg);

    mac::RateOracle oracle(base);
    mac::SoftRateMac::Config mc;
    mc.pberLo = pber_lo;
    mc.pberHi = pber_hi;
    mac::SoftRateMac softrate(mc);

    RunResult out;
    const size_t payload = 1704;
    for (std::uint64_t p = 0; p < packets; ++p) {
        phy::RateIndex chosen = softrate.currentRate();
        sim::FrameResult res = oracle.runFrameAtRate(chosen, payload, p);
        double pber = est.packetBerForRate(chosen, res.rx.soft);
        softrate.onFeedback(pber);

        int optimal = oracle.optimalRate(payload, p);
        if (optimal < 0)
            continue; // no rate could deliver this packet
        out.stats.record(mac::classifySelection(chosen, optimal));
        out.within_one += std::abs(chosen - optimal) <= 1;
        ++out.judged;
    }
    return out;
}

mac::SelectionStats
runGenie(std::uint64_t packets)
{
    sim::ScenarioSpec base;
    base.rx.decoder = "viterbi"; // oracle decode only
    base.channel = "rayleigh";
    base.channelCfg = li::Config::fromString(kChannelCfg);
    mac::RateOracle oracle(base);
    mac::SelectionStats stats;
    int prev = -2;
    for (std::uint64_t p = 0; p < packets; ++p) {
        int optimal = oracle.optimalRate(1704, p);
        if (optimal >= 0 && prev >= 0)
            stats.record(mac::classifySelection(prev, optimal));
        prev = optimal >= 0 ? optimal : -2;
    }
    return stats;
}

} // namespace

int
main()
{
    banner("Figure 7: SoftRate selection quality, 20 Hz fading + "
           "10 dB AWGN");
    std::uint64_t packets = scaled(400, 80);

    Table t({"Decoder", "PBER band", "Underselect %", "Accurate %",
             "Overselect %", "within +-1 %", "packets"});
    for (const char *dec : {"bcjr", "sova"}) {
        // Paper band [1e-7, 1e-5] and the band retuned for this
        // pipeline's estimator floors (see EXPERIMENTS.md).
        for (auto [lo, hi] : {std::pair{1e-7, 1e-5}, {1e-6, 1e-4}}) {
            RunResult r = runSoftRate(dec, packets, lo, hi);
            t.addRow(
                {dec, strprintf("[%.0e, %.0e]", lo, hi),
                 strprintf("%.1f", r.stats.underPct()),
                 strprintf("%.1f", r.stats.accuratePct()),
                 strprintf("%.1f", r.stats.overPct()),
                 strprintf("%.1f", 100.0 *
                                       static_cast<double>(
                                           r.within_one) /
                                       static_cast<double>(r.judged)),
                 strprintf("%llu", static_cast<unsigned long long>(
                                       r.stats.total()))});
        }
    }
    mac::SelectionStats genie = runGenie(packets);
    t.addRow({"genie", "(prev optimal)",
              strprintf("%.1f", genie.underPct()),
              strprintf("%.1f", genie.accuratePct()),
              strprintf("%.1f", genie.overPct()), "-",
              strprintf("%llu",
                        static_cast<unsigned long long>(
                            genie.total()))});
    t.print();

    std::printf(
        "\npaper: both > 80%% accurate; SOVA underselects ~4%% more "
        "than BCJR; both overselect ~2%%.\n"
        "The 'genie' row is the feedback-controller ceiling in this "
        "channel realization: the per-packet\noptimal rate itself "
        "moves between consecutive packets, which bounds absolute "
        "accuracy. The\npaper-relative claims (SOVA underselects "
        "more, overselect rare, selections within one step)\nare "
        "checked in tests/test_softrate_experiment.cc.\n");
    return 0;
}
