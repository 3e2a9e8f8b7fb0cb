#include "channel/interference.hh"

#include <cmath>
#include <numbers>

#include "common/random.hh"
#include "phy/ofdm_symbol.hh"

namespace wilis {
namespace channel {

InterferenceChannel::InterferenceChannel(const Params &p)
    : awgn(p.awgn),
      // Signal power is 1 (normalized constellations); the tone
      // carries all its power on one subcarrier.
      amp(std::sqrt(std::pow(10.0, -p.sirDb / 10.0))),
      bin(p.interfererBin), seed(p.awgn.seed)
{}

Sample
InterferenceChannel::toneAt(std::uint64_t packet_index,
                            std::uint64_t sample_index) const
{
    // A complex exponential at the interferer subcarrier frequency,
    // with a random-but-replayable phase per packet.
    CounterRng rng = CounterRng(seed ^ 0x1F2E3D4Cull);
    double phase0 = rng.doubleAt(packet_index) * 2.0 *
                    std::numbers::pi;
    double ang = 2.0 * std::numbers::pi * bin *
                     static_cast<double>(sample_index) /
                     phy::OfdmGeometry::kFftSize +
                 phase0;
    return amp * Sample(std::cos(ang), std::sin(ang));
}

void
InterferenceChannel::apply(SampleSpan samples,
                           std::uint64_t packet_index)
{
    for (size_t i = 0; i < samples.size(); ++i)
        samples[i] += toneAt(packet_index, i);
    awgn.apply(samples, packet_index);
}

Sample
InterferenceChannel::impairSample(Sample s,
                                  std::uint64_t packet_index,
                                  std::uint64_t sample_index) const
{
    return awgn.impairSample(s + toneAt(packet_index, sample_index),
                             packet_index, sample_index);
}

} // namespace channel
} // namespace wilis
