#include "phy/ofdm_rx.hh"

#include <algorithm>

#include "common/logging.hh"
#include "phy/conv_code.hh"
#include "phy/cyclic_prefix.hh"
#include "phy/scrambler.hh"

namespace wilis {
namespace phy {

std::uint64_t
RxFrame::bitErrors(BitView ref) const
{
    wilis_assert(ref.size() == payload.size(),
                 "payload size mismatch: %zu vs %zu", ref.size(),
                 payload.size());
    std::uint64_t errors = 0;
    for (size_t i = 0; i < ref.size(); ++i)
        errors += (ref[i] != payload[i]) ? 1u : 0u;
    return errors;
}

OfdmReceiver::OfdmReceiver(RateIndex rate_idx)
    : OfdmReceiver(rate_idx, Config())
{}

OfdmReceiver::OfdmReceiver(RateIndex rate_idx, const Config &cfg_)
    : params(rateTable(rate_idx)), cfg(cfg_),
      interleaver(params.modulation), puncturer(params.codeRate),
      demapper(params.modulation, cfg_.demapper),
      fft(OfdmGeometry::kFftSize),
      dec(decode::makeDecoder(cfg_.decoder, cfg_.decoderCfg))
{}

RxFrame
OfdmReceiver::demodulate(SampleView samples, size_t payload_bits,
                         const channel::Channel *csi,
                         std::uint64_t packet_index, FrameContext &ctx)
{
    wilis_assert(samples.size() % OfdmGeometry::kSymbolLen == 0,
                 "sample count %zu not a whole number of symbols",
                 samples.size());
    const int nsym =
        static_cast<int>(samples.size() / OfdmGeometry::kSymbolLen);
    FrameArena &arena = ctx.arena;

    // Per-symbol: strip CP, FFT, equalize, soft-demap, deinterleave
    // straight into the whole-packet soft stream.
    SoftSpan soft_stream = arena.alloc<SoftBit>(
        static_cast<size_t>(nsym) *
        static_cast<size_t>(params.nCbps));
    SampleSpan body = arena.alloc<Sample>(OfdmGeometry::kFftSize);
    SoftSpan sym_soft = arena.alloc<SoftBit>(
        static_cast<size_t>(params.nCbps));
    SampleSpan eq = arena.alloc<Sample>(OfdmGeometry::kDataCarriers);
    std::span<double> csi_w =
        arena.alloc<double>(OfdmGeometry::kDataCarriers);
    // Channel state of the current symbol, one gain per FFT bin
    // (unit gains without CSI).
    SampleSpan h = arena.alloc<Sample>(OfdmGeometry::kFftSize);
    std::fill(h.begin(), h.end(), Sample(1.0, 0.0));
    for (int s = 0; s < nsym; ++s) {
        const size_t base = static_cast<size_t>(s) *
                            OfdmGeometry::kSymbolLen;
        removeCyclicPrefix(samples.subspan(base,
                                           OfdmGeometry::kSymbolLen),
                           body);
        fft.forward(body);

        // Equalize the data carriers, then soft-demap the whole
        // symbol in one batched kernel call.
        if (csi)
            csi->binGains(packet_index, s, h);
        for (int d = 0; d < OfdmGeometry::kDataCarriers; ++d) {
            const auto bin = static_cast<size_t>(
                OfdmGeometry::kDataBins[static_cast<size_t>(d)]);
            eq[static_cast<size_t>(d)] = body[bin] / h[bin];
            if (cfg.applyCsiWeight)
                csi_w[static_cast<size_t>(d)] = std::abs(h[bin]);
        }
        demapper.demapBatch(eq.data(),
                            cfg.applyCsiWeight ? csi_w.data()
                                               : nullptr,
                            static_cast<size_t>(
                                OfdmGeometry::kDataCarriers),
                            sym_soft.data());
        interleaver.deinterleave(
            sym_soft,
            soft_stream.subspan(static_cast<size_t>(s) *
                                    static_cast<size_t>(params.nCbps),
                                static_cast<size_t>(params.nCbps)));
    }

    // Depuncture and decode the terminated block.
    SoftSpan rate_half = arena.alloc<SoftBit>(
        puncturer.unpuncturedLength(soft_stream.size()));
    puncturer.depuncture(soft_stream, rate_half);
    std::span<SoftDecision> decisions =
        arena.alloc<SoftDecision>(rate_half.size() / 2);
    dec->decodeInto(rate_half, decisions);

    const size_t info_bits =
        static_cast<size_t>(nsym) *
            static_cast<size_t>(params.nDbps) -
        ConvCode::kTailBits;
    wilis_assert(decisions.size() ==
                     info_bits + ConvCode::kTailBits,
                 "decoder returned %zu decisions, expected %zu",
                 decisions.size(), info_bits + ConvCode::kTailBits);
    wilis_assert(payload_bits <= info_bits,
                 "payload %zu larger than frame capacity %zu",
                 payload_bits, info_bits);

    // Descramble and trim pad/tail.
    Scrambler scrambler(cfg.scramblerSeed);
    RxFrame res;
    res.payload = arena.alloc<Bit>(payload_bits);
    res.soft = arena.alloc<SoftDecision>(payload_bits);
    for (size_t i = 0; i < payload_bits; ++i) {
        Bit prbs = scrambler.nextPrbsBit();
        SoftDecision d = decisions[i];
        d.bit = d.bit ^ prbs;
        res.payload[i] = d.bit;
        res.soft[i] = d;
    }
    return res;
}

} // namespace phy
} // namespace wilis
