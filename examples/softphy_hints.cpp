/**
 * @file
 * SoftPHY in action: calibrate the two-level lookup BER estimator,
 * then use per-bit BER estimates the way Partial Packet Recovery
 * does -- find the corrupted chunks of a packet and ask for just
 * those bits again instead of the whole frame.
 *
 * Run: ./build/examples/softphy_hints
 */

#include <cstdio>

#include "mac/ppr.hh"
#include "sim/testbench.hh"
#include "softphy/softphy.hh"

using namespace wilis;

int
main()
{
    // Calibrate the estimator for QAM-16 / BCJR (section 4.2's
    // two-level lookup: modulation selects a table, the table maps
    // LLR hints to BER).
    std::printf("calibrating SoftPHY estimator (QAM-16, BCJR)...\n");
    softphy::CalibrationSpec spec;
    spec.rx.decoder = "bcjr";
    spec.packets = 150;
    spec.threads = 0;
    softphy::BerEstimator est;
    est.setTable(phy::Modulation::QAM16,
                 calibrateTable(phy::Modulation::QAM16, spec));

    // A noisy operating point: some packets arrive corrupted.
    sim::ScenarioSpec cfg;
    cfg.rate = 4; // QAM-16 1/2
    cfg.rx = spec.rx;
    cfg.channelCfg = li::Config::fromString("snr_db=7.5,seed=99");
    sim::Testbench tb(cfg);

    mac::PprPolicy ppr(&est, /*ber_threshold=*/1e-3,
                       /*chunk_bits=*/64);

    std::printf("\n%-8s %-8s %-12s %-10s %-12s %s\n", "packet",
                "errors", "pred. PBER", "flagged", "recoverable",
                "retransmit");
    std::uint64_t arq_bits = 0;
    std::uint64_t ppr_bits = 0;
    for (std::uint64_t p = 0; p < 20; ++p) {
        sim::FrameResult res = tb.runFrame(1704, p);
        double pber =
            est.packetBer(phy::Modulation::QAM16, res.rx.soft);
        mac::PprOutcome out = ppr.evaluate(
            phy::Modulation::QAM16, res.rx.soft, res.txPayload);

        // Conventional ARQ retransmits everything on any error; PPR
        // retransmits only flagged chunks.
        arq_bits += res.bitErrors ? 1704 : 0;
        ppr_bits += out.flaggedBits;

        std::printf("%-8llu %-8llu %-12.2e %-10llu %-12s %5.1f%%\n",
                    static_cast<unsigned long long>(p),
                    static_cast<unsigned long long>(res.bitErrors),
                    pber,
                    static_cast<unsigned long long>(out.flaggedBits),
                    out.recoverable() ? "yes" : "NO",
                    100.0 * out.retransmitFraction());
    }
    std::printf("\nretransmission volume over 20 packets: ARQ %llu "
                "bits vs PPR %llu bits\n",
                static_cast<unsigned long long>(arq_bits),
                static_cast<unsigned long long>(ppr_bits));
    std::printf("(PPR pays a small overhead on clean packets but "
                "avoids full retransmits on dirty ones)\n");
    return 0;
}
