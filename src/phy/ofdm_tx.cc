#include "phy/ofdm_tx.hh"

#include "common/logging.hh"
#include "phy/cyclic_prefix.hh"

namespace wilis {
namespace phy {

OfdmTransmitter::OfdmTransmitter(RateIndex rate_idx,
                                 std::uint8_t scrambler_seed)
    : params(rateTable(rate_idx)), seed(scrambler_seed),
      interleaver(params.modulation), mapper(params.modulation),
      puncturer(params.codeRate), fft(OfdmGeometry::kFftSize)
{}

SampleSpan
OfdmTransmitter::modulate(BitView payload, FrameContext &ctx)
{
    wilis_assert(!payload.empty(), "empty payload");
    FrameArena &arena = ctx.arena;

    // Pad to fill whole OFDM symbols, scramble, encode (terminated).
    const size_t info_bits =
        OfdmGeometry::paddedInfoBits(params, payload.size());
    BitSpan info = arena.alloc<Bit>(info_bits);
    std::copy(payload.begin(), payload.end(), info.begin());
    std::fill(info.begin() + static_cast<long>(payload.size()),
              info.end(), 0);

    Scrambler scrambler(seed);
    BitSpan scrambled = arena.alloc<Bit>(info_bits);
    scrambler.process(info, scrambled);
    BitSpan coded = arena.alloc<Bit>(
        2 * (info_bits + static_cast<size_t>(ConvCode::kTailBits)));
    convCode().encode(scrambled, true, coded);
    BitSpan punctured =
        arena.alloc<Bit>(puncturer.puncturedLength(coded.size()));
    puncturer.puncture(coded, punctured);
    BitSpan interleaved = arena.alloc<Bit>(punctured.size());
    interleaver.interleaveStream(punctured, interleaved);

    // Map each symbol's coded bits to the 48 data subcarriers; the
    // IFFT runs in the bins buffer and the CP copy lands directly in
    // the output span (no per-symbol temporaries).
    const int nsym = OfdmGeometry::numSymbols(params, payload.size());
    SampleSpan out = arena.alloc<Sample>(
        static_cast<size_t>(nsym) * OfdmGeometry::kSymbolLen);

    PilotTracker pilots;
    SampleSpan bins = arena.alloc<Sample>(OfdmGeometry::kFftSize);
    const int n_bpsc = params.nBpsc;
    for (int s = 0; s < nsym; ++s) {
        std::fill(bins.begin(), bins.end(), Sample(0.0, 0.0));
        const size_t base = static_cast<size_t>(s) *
                            static_cast<size_t>(params.nCbps);
        const Bit *bits = &interleaved[base];
        for (int bin : OfdmGeometry::kDataBins) {
            bins[static_cast<size_t>(bin)] = mapper.map(bits);
            bits += n_bpsc;
        }
        pilots.insertPilots(bins);

        fft.inverse(bins);
        addCyclicPrefix(bins,
                        out.subspan(static_cast<size_t>(s) *
                                        OfdmGeometry::kSymbolLen,
                                    OfdmGeometry::kSymbolLen));
    }
    return out;
}

} // namespace phy
} // namespace wilis
