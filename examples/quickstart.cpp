/**
 * @file
 * Quickstart: push one packet through the full 802.11a/g transceiver
 * over an AWGN channel and look at what comes out -- decoded bits,
 * bit errors, and the SoftPHY confidence hints.
 *
 * Build & run:
 *   cmake -B build -G Ninja && cmake --build build
 *   ./build/examples/quickstart [snr_db] [rate 0..7]
 */

#include <cstdio>
#include <cstdlib>

#include "channel/channel.hh"
#include "common/random.hh"
#include "phy/ofdm_rx.hh"
#include "phy/ofdm_tx.hh"

using namespace wilis;

int
main(int argc, char **argv)
{
    double snr_db = argc > 1 ? std::atof(argv[1]) : 7.0;
    int rate = argc > 2 ? std::atoi(argv[2]) : 2; // QPSK 1/2

    const phy::RateParams &rp = phy::rateTable(rate);
    std::printf("rate: %s, channel: AWGN %.1f dB\n",
                rp.name().c_str(), snr_db);

    // 1. Make a payload.
    const size_t payload_bits = 1704;
    SplitMix64 rng(2024);
    BitVec payload(payload_bits);
    for (auto &b : payload)
        b = rng.nextBit();

    // 2. Transmit: scramble, encode, puncture, interleave, map,
    //    IFFT, cyclic prefix. Every stage's buffer, and the
    //    receiver's below, is carved from one frame arena.
    FrameArena arena;
    FrameContext ctx(arena);
    phy::OfdmTransmitter tx(rate);
    SampleSpan samples = tx.modulate(BitView(payload), ctx);
    std::printf("modulated %zu bits -> %d OFDM symbols (%zu complex "
                "samples)\n",
                payload_bits,
                phy::OfdmGeometry::numSymbols(tx.rate(), payload_bits),
                samples.size());

    // 3. The software channel adds impairments.
    auto channel = channel::makeChannel(
        "awgn", li::Config::fromString(
                    "snr_db=" + std::to_string(snr_db) + ",seed=42"));
    channel->apply(samples, /*packet_index=*/0);

    // 4. Receive with the plug-n-play decoder of your choice:
    //    "viterbi", "sova", "bcjr", or "bcjr-logmap".
    phy::OfdmReceiver::Config rxc;
    rxc.decoder = "bcjr";
    phy::OfdmReceiver rx(rate, rxc);
    phy::RxFrame res =
        rx.demodulate(samples, payload_bits, channel.get(), 0, ctx);

    // 5. Inspect the results.
    std::uint64_t errors = res.bitErrors(payload);
    std::printf("decoded %zu bits with %llu errors (BER %.2e)\n",
                res.payload.size(),
                static_cast<unsigned long long>(errors),
                static_cast<double>(errors) /
                    static_cast<double>(payload_bits));

    // The SoftPHY export: every bit carries an LLR confidence hint.
    double min_hint = 1e18;
    double sum = 0.0;
    for (const auto &d : res.soft) {
        min_hint = std::min(min_hint, d.llr);
        sum += std::min(d.llr, 1e6);
    }
    std::printf("SoftPHY hints: min %.0f, mean %.0f -- low hints "
                "mark the bits most likely to be wrong\n",
                min_hint, sum / static_cast<double>(res.soft.size()));
    return 0;
}
