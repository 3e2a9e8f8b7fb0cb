#include "channel/multipath.hh"

#include <cmath>
#include <numbers>

#include "common/logging.hh"

namespace wilis {
namespace channel {

MultipathChannel::MultipathChannel(const Params &p)
    : awgn(p.awgn)
{
    const int num_taps = p.numTaps;
    wilis_assert(num_taps >= 1, "need at least one tap");
    wilis_assert(num_taps <= Params::kMaxTaps,
                 "delay spread of %d taps exceeds the %d-sample "
                 "cyclic prefix",
                 num_taps, phy::OfdmGeometry::kCpLen);
    wilis_assert(p.delaySpread > 0.0, "delay spread must be positive");

    // Exponential power-delay profile, normalized to unit total
    // power so the mean SNR matches the flat channels.
    double total = 0.0;
    std::vector<double> pdp(static_cast<size_t>(num_taps));
    for (int l = 0; l < num_taps; ++l) {
        pdp[static_cast<size_t>(l)] = std::exp(-l / p.delaySpread);
        total += pdp[static_cast<size_t>(l)];
    }
    taps.reserve(static_cast<size_t>(num_taps));
    for (int l = 0; l < num_taps; ++l) {
        Tap t;
        t.delay = l;
        t.weight = std::sqrt(pdp[static_cast<size_t>(l)] / total);
        // Each tap gets an independent unit-power fading process
        // (noiseless: the AWGN member adds the noise once).
        t.process = std::make_unique<RayleighChannel>(RayleighParams{
            .awgn = {.snrDb = 300.0,
                     .seed = p.awgn.seed ^ (0xBEEF0000ull + 131ull * l)},
            .dopplerHz = p.dopplerHz,
            .packetIntervalUs = p.packetIntervalUs});
        taps.push_back(std::move(t));
    }

    const int n = phy::OfdmGeometry::kFftSize;
    twiddle.reserve(static_cast<size_t>(n * num_taps));
    for (int bin = 0; bin < n; ++bin) {
        for (const Tap &t : taps) {
            double ang = -2.0 * std::numbers::pi * bin * t.delay / n;
            twiddle.emplace_back(std::cos(ang), std::sin(ang));
        }
    }
}

Sample
MultipathChannel::tapValue(std::uint64_t packet_index,
                           int symbol_index, int l) const
{
    const Tap &t = taps[static_cast<size_t>(l)];
    return t.weight * t.process->gain(packet_index, symbol_index);
}

MultipathChannel::TapValues
MultipathChannel::tapValues(std::uint64_t packet_index,
                            int symbol_index) const
{
    TapValues h;
    for (int l = 0; l < numTaps(); ++l)
        h[static_cast<size_t>(l)] =
            tapValue(packet_index, symbol_index, l);
    return h;
}

Sample
MultipathChannel::binResponse(const TapValues &h, int bin) const
{
    const Sample *w =
        &twiddle[static_cast<size_t>(bin) * taps.size()];
    Sample acc(0.0, 0.0);
    for (size_t l = 0; l < taps.size(); ++l)
        acc += h[l] * w[l];
    return acc;
}

Sample
MultipathChannel::gain(std::uint64_t packet_index,
                       int symbol_index) const
{
    // The "flat equivalent" gain is the DC bin response.
    return binResponse(tapValues(packet_index, symbol_index), 0);
}

void
MultipathChannel::binGains(std::uint64_t packet_index,
                           int symbol_index, SampleSpan bins) const
{
    wilis_assert(bins.size() ==
                     static_cast<size_t>(phy::OfdmGeometry::kFftSize),
                 "%zu CSI bins for a %d-point FFT", bins.size(),
                 phy::OfdmGeometry::kFftSize);
    const TapValues h = tapValues(packet_index, symbol_index);
    for (size_t bin = 0; bin < bins.size(); ++bin)
        bins[bin] = binResponse(h, static_cast<int>(bin));
}

void
MultipathChannel::apply(SampleSpan samples,
                        std::uint64_t packet_index)
{
    // Linear convolution with per-symbol tap values; the cyclic
    // prefix turns it into the circular convolution the per-bin
    // equalizer assumes. Running the convolution backwards makes it
    // in-place: out[i] only reads samples[i - d] with d >= 0, which
    // a descending sweep has not yet overwritten. Tap values change
    // only at symbol boundaries, so they are cached per symbol.
    const int sym_len = phy::OfdmGeometry::kSymbolLen;
    TapValues tap_cache;
    int cached_symbol = -1;
    for (size_t i = samples.size(); i-- > 0;) {
        int symbol =
            static_cast<int>(i / static_cast<size_t>(sym_len));
        if (symbol != cached_symbol) {
            tap_cache = tapValues(packet_index, symbol);
            cached_symbol = symbol;
        }
        Sample acc(0.0, 0.0);
        for (int l = 0; l < numTaps(); ++l) {
            int d = taps[static_cast<size_t>(l)].delay;
            if (i >= static_cast<size_t>(d)) {
                acc += tap_cache[static_cast<size_t>(l)] *
                       samples[i - static_cast<size_t>(d)];
            }
        }
        samples[i] = acc;
    }
    awgn.apply(samples, packet_index);
}

Sample
MultipathChannel::impairSample(Sample s, std::uint64_t packet_index,
                               std::uint64_t sample_index) const
{
    // Streaming form: requires in-order calls per packet (the LI
    // channel module guarantees this).
    if (packet_index != history_packet || sample_index == 0) {
        wilis_assert(sample_index == 0,
                     "multipath streaming must start at sample 0 "
                     "(got %llu)",
                     static_cast<unsigned long long>(sample_index));
        history.clear();
        history_packet = packet_index;
        history_next = 0;
    }
    wilis_assert(sample_index == history_next,
                 "multipath streaming out of order: %llu != %llu",
                 static_cast<unsigned long long>(sample_index),
                 static_cast<unsigned long long>(history_next));
    history.push_back(s);
    ++history_next;

    int symbol = static_cast<int>(
        sample_index /
        static_cast<std::uint64_t>(phy::OfdmGeometry::kSymbolLen));
    Sample acc(0.0, 0.0);
    for (int l = 0; l < numTaps(); ++l) {
        int d = taps[static_cast<size_t>(l)].delay;
        if (sample_index >= static_cast<std::uint64_t>(d)) {
            acc += tapValue(packet_index, symbol, l) *
                   history[sample_index - static_cast<std::uint64_t>(d)];
        }
    }
    return awgn.impairSample(acc, packet_index, sample_index);
}

} // namespace channel
} // namespace wilis
