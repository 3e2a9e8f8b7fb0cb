/**
 * @file
 * Additive White Gaussian Noise channel with a variable SNR
 * (section 3: "we implement an AWGN channel with a variable
 * Signal-to-Noise-Ratio; our software channel implementation is
 * multi-threaded").
 *
 * Noise is generated per 1024-sample block from a counter-based
 * generator, so output is bit-identical for any worker thread count
 * and any packet replay order. With threads != 1, each apply()
 * spreads its blocks over a LockstepTeam of its own.
 */

#ifndef WILIS_CHANNEL_AWGN_HH
#define WILIS_CHANNEL_AWGN_HH

#include "channel/channel.hh"
#include "common/random.hh"

namespace wilis {
namespace channel {

/** AwgnChannel's parameters, one field per config key. */
struct AwgnParams {
    /** Key snr_db: per-subcarrier Es/N0 in dB. */
    double snrDb = 10.0;
    /** Key seed: noise stream seed. */
    std::uint64_t seed = 1;
    /** Key threads: noise workers (0 = hardware concurrency). */
    int threads = 1;
    /**
     * Key common_noise: every packet sees the *same* noise (the
     * paper's section 4.4.2 "pseudo-random noise model"), so whether
     * a rate survives is a deterministic function of the fading
     * level and the optimal-rate oracle is well-posed.
     */
    bool commonNoise = false;

    /** snr_db, seed and threads: the keys every channel shares. */
    template <typename V>
    void visitNoiseKeys(V &v)
    {
        // Finite: the default range rejects NaN and +-inf.
        v("snr_db", snrDb, li::Range<double>{});
        v("seed", seed);
        v("threads", threads, li::within(0, 1024));
    }

    template <typename V>
    void visitKeys(V &v)
    {
        visitNoiseKeys(v);
        v("common_noise", commonNoise);
    }
};

/** Multi-threaded AWGN channel. */
class AwgnChannel : public Channel
{
  public:
    using Params = AwgnParams;
    explicit AwgnChannel(const Params &p = {});

    std::string name() const override { return "awgn"; }
    void apply(SampleSpan samples, std::uint64_t packet_index) override;
    Sample impairSample(Sample s, std::uint64_t packet_index,
                        std::uint64_t sample_index) const override;
    double noiseVariance() const override { return n0; }

    /** Change the SNR (the "variable SNR" knob). */
    void setSnrDb(double snr_db);

    /** Noise-generation block size (samples per RNG stream). */
    static constexpr size_t kBlockSize = 1024;

  private:
    void addNoiseBlock(SampleSpan samples, std::uint64_t packet_index,
                       size_t block) const;

    double n0;     // noise variance per complex sample
    double sigma;  // per-dimension standard deviation
    std::uint64_t seed;
    bool common_noise_;
    int threads_; // noise workers per apply() (0 = hardware)
};

} // namespace channel
} // namespace wilis

#endif // WILIS_CHANNEL_AWGN_HH
