/**
 * @file
 * Offline calibration-table builder for the hybrid-fidelity network
 * simulator: measures per (rate, SNR bin) frame error rates and
 * SoftPHY packet-BER statistics against the bit-exact PHY and writes
 * the table consumed by `fidelity=analytic|auto` runs
 * (sim::NetworkSpec::calibrationFile).
 *
 * The committed table data/network_calibration.txt is the output of
 *
 *     ./build/build_calibration data/network_calibration.txt cell-16
 *
 * i.e. the geometry sim::NetworkSim::calibrationBuildSpec derives
 * for the built-in cell presets (payload 1000, mean SNR 14 dB,
 * +-6 dB near/far spread). Regenerate it with this tool whenever
 * the PHY, the decoder defaults or the preset link template change.
 *
 * Run: ./build/build_calibration <out.txt> [network-spec-arg]
 *                                [packets_per_cell] [threads]
 *
 * The spec argument is anything sim::parseNetworkSpecArg() takes (a
 * preset with optional k=v overrides, an inline config or a config
 * file; default cell-16).
 */

#include <cstdio>
#include <string>

#include "common/logging.hh"
#include "li/config.hh"
#include "sim/network_sim.hh"
#include "sim/scenario.hh"

using namespace wilis;

int
main(int argc, char **argv)
{
    if (argc < 2) {
        std::fprintf(stderr,
                     "usage: %s <out.txt> [network-spec-arg] "
                     "[packets_per_cell] [threads]\n",
                     argv[0]);
        return 2;
    }
    wilis_fatal_if(argc > 5, "unexpected argument '%s'", argv[5]);
    const std::string out_path = argv[1];
    const sim::NetworkSpec spec =
        sim::parseNetworkSpecArg(argc > 2 ? argv[2] : "cell-16");

    // The numeric positionals go through li::Config's strict
    // getters, so a malformed value is fatal and names its argument.
    li::Config args;
    if (argc > 3)
        args.set("packets_per_cell", argv[3]);
    if (argc > 4)
        args.set("threads", argv[4]);
    softphy::CalibrationTable::BuildSpec build =
        sim::NetworkSim::calibrationBuildSpec(spec);
    const li::ApplyKeys read(args);
    read("packets_per_cell", build.packetsPerCell,
         li::atLeast<std::uint64_t>(1));
    read("threads", build.threads, li::atLeast(0));

    std::printf("calibrating %s: %d rates x %d bins "
                "[%g..%g dB step %g], %llu packets/cell, "
                "payload %zu bits, decoder %s\n",
                spec.name.c_str(), phy::kNumRates, build.numBins,
                build.snrLoDb,
                build.snrLoDb + build.numBins * build.snrStepDb,
                build.snrStepDb,
                static_cast<unsigned long long>(build.packetsPerCell),
                build.payloadBits, build.rx.decoder.c_str());

    softphy::CalibrationTable table =
        softphy::CalibrationTable::build(build);
    table.save(out_path);
    std::printf("wrote %s\n", out_path.c_str());

    // A quick human-readable sanity slice: the waterfall per rate.
    std::printf("\n%-6s", "snr dB");
    for (int r = 0; r < phy::kNumRates; ++r)
        std::printf("  r%d_per", r);
    std::printf("\n");
    for (int bin = 0; bin < table.numBins(); ++bin) {
        std::printf("%-6.1f", table.binCenterDb(bin));
        for (int r = 0; r < phy::kNumRates; ++r)
            std::printf("  %6.3f", table.cell(r, bin).per());
        std::printf("\n");
    }
    return 0;
}
