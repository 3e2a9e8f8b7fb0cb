/**
 * @file
 * SoftRate rate adaptation over a fading channel: watch the MAC ride
 * the fades. Every packet the receiver estimates the packet BER from
 * SoftPHY hints; the transmitter steps the rate up or down when the
 * estimate leaves the operating range.
 *
 * Run: ./build/examples/softrate_adaptation
 */

#include <cstdio>
#include <string>

#include "mac/oracle.hh"
#include "mac/softrate.hh"
#include "softphy/softphy.hh"

using namespace wilis;

int
main()
{
    std::printf("calibrating per-rate SoftPHY tables (BCJR)...\n");
    softphy::CalibrationSpec spec;
    spec.rx.decoder = "bcjr";
    spec.packets = 120;
    spec.threads = 0;
    softphy::BerEstimator est = calibrateRateEstimator(spec);

    sim::ScenarioSpec base;
    base.rx = spec.rx;
    base.channel = "rayleigh";
    base.channelCfg = li::Config::fromString(
        "snr_db=10,doppler_hz=20,seed=7,packet_interval_us=200,"
        "common_noise=true,block_fading=true");

    mac::RateOracle oracle(base);
    mac::SoftRateMac softrate;
    // A channel instance used only to narrate the fading level.
    auto fade_probe = channel::makeChannel("rayleigh", base.channelCfg);

    std::printf("\n%-7s %-22s %-12s %-8s %-9s %s\n", "packet",
                "rate", "pred. PBER", "errors", "optimal",
                "|h|^2 (dB)");
    mac::SelectionStats stats;
    for (std::uint64_t p = 0; p < 60; ++p) {
        phy::RateIndex chosen = softrate.currentRate();
        sim::FrameResult res = oracle.runFrameAtRate(chosen, 1704, p);
        double pber = est.packetBerForRate(chosen, res.rx.soft);
        int optimal = oracle.optimalRate(1704, p);

        // Fading level seen by this packet (for the narrative only).
        double h2 = std::norm(fade_probe->gain(p, 0));

        std::printf("%-7llu %-22s %-12.2e %-8llu %-9s %+.1f\n",
                    static_cast<unsigned long long>(p),
                    phy::rateTable(chosen).name().c_str(), pber,
                    static_cast<unsigned long long>(res.bitErrors),
                    optimal >= 0
                        ? phy::rateTable(optimal).name().c_str()
                        : "(none)",
                    10.0 * std::log10(h2 + 1e-12));

        softrate.onFeedback(pber);
        if (optimal >= 0)
            stats.record(mac::classifySelection(chosen, optimal));
    }
    std::printf("\nselection quality: %.0f%% accurate, %.0f%% under, "
                "%.0f%% over\n",
                stats.accuratePct(), stats.underPct(),
                stats.overPct());
    return 0;
}
