/**
 * @file
 * AWGN plus narrowband interference: a complex tone of configurable
 * power and frequency (an adjacent-channel leak or a non-WiFi
 * emitter). Interference is the third impairment the paper's
 * introduction names (after noise and fading); it concentrates on a
 * few subcarriers, so the interleaver's job -- scattering the hits
 * across the codeword -- is visible in the decoded BER.
 */

#ifndef WILIS_CHANNEL_INTERFERENCE_HH
#define WILIS_CHANNEL_INTERFERENCE_HH

#include "channel/awgn.hh"
#include "channel/channel.hh"

namespace wilis {
namespace channel {

/** InterferenceChannel's parameters, one field per config key. */
struct InterferenceParams {
    /** Keys snr_db (background noise), seed, threads, common_noise. */
    AwgnParams awgn = {};
    /** Key sir_db: signal-to-interference ratio in dB. */
    double sirDb = 10.0;
    /**
     * Key interferer_bin: logical subcarrier of the tone (+-7 and
     * +-21 are pilots the data path never demaps).
     */
    int interfererBin = 10;

    template <typename V>
    void visitKeys(V &v)
    {
        awgn.visitKeys(v);
        v("sir_db", sirDb, li::Range<double>{});
        v("interferer_bin", interfererBin, li::within(-26, 26));
    }
};

/** AWGN + complex-tone interferer. */
class InterferenceChannel : public Channel
{
  public:
    using Params = InterferenceParams;
    explicit InterferenceChannel(const Params &p = {});

    std::string name() const override { return "interference"; }
    void apply(SampleSpan samples, std::uint64_t packet_index) override;
    Sample impairSample(Sample s, std::uint64_t packet_index,
                        std::uint64_t sample_index) const override;
    double noiseVariance() const override
    {
        return awgn.noiseVariance();
    }

  private:
    Sample toneAt(std::uint64_t packet_index,
                  std::uint64_t sample_index) const;

    AwgnChannel awgn;
    double amp;
    int bin;
    std::uint64_t seed;
};

} // namespace channel
} // namespace wilis

#endif // WILIS_CHANNEL_INTERFERENCE_HH
