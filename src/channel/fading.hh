/**
 * @file
 * Flat Rayleigh fading channel with AWGN, used for the SoftRate
 * experiment ("20 Hz fading channel with 10 dB AWGN", Figure 7).
 *
 * The fading process is a Jakes/Clarke sum-of-sinusoids evaluated at
 * absolute time, so the gain seen by packet p at symbol s depends
 * only on (seed, p, s) -- every candidate rate in the oracle replay
 * observes the same fading trajectory.
 */

#ifndef WILIS_CHANNEL_FADING_HH
#define WILIS_CHANNEL_FADING_HH

#include <array>

#include "channel/awgn.hh"
#include "channel/channel.hh"

namespace wilis {
namespace channel {

/**
 * The bare Jakes/Clarke sum-of-sinusoids Rayleigh fading process,
 * split out of RayleighChannel so the multi-cell network simulator
 * can evaluate per-user fading gains at arbitrary slot times
 * without paying for an AWGN channel per user. The oscillator bank
 * is deterministic in the seed, evaluation is random-access (a pure
 * function of absolute time), and E[|h|^2] = 1.
 */
class JakesFader
{
  public:
    /**
     * @param doppler_hz Maximum Doppler frequency.
     * @param seed       Oscillator bank seed; equal seeds produce
     *                   the identical fading trajectory.
     */
    JakesFader(double doppler_hz, std::uint64_t seed);

    /** Complex fading gain at absolute time @p t_us. */
    Sample gainAt(double t_us) const;

    /**
     * An upper bound B on std::norm(gainAt(t)) for every
     * 0 <= t <= @p horizon_us, rounding of gainAt() and std::norm
     * included: oscillators m and pairOf(m) have opposite Doppler,
     * so their sum is bounded by a term of the phases alone
     * (derivation in docs/ARCHITECTURE.md, "Proportional-fair
     * pruning"). Never above 32, the bound every bank meets.
     */
    double powerBound(double horizon_us) const;

    /**
     * max over m of |cos(a_m) + cos(a_pairOf(m))| for the arrival
     * angles a: the rounding residue of the opposite-Doppler
     * pairing that powerBound() and JakesPairForm rely on (they
     * stay sound for any residue, but tight only for one of a few
     * ulps).
     */
    double pairingResidue() const;

  private:
    friend class JakesPairForm;

    static constexpr int kOscillators = 16;

    /** Oscillator m's partner, at arrival angle a_m + pi. */
    static constexpr int pairOf(int m) { return m + kOscillators / 2; }

    double doppler;
    std::array<double, kOscillators> freq_scale; // cos(arrival angle)
    std::array<double, kOscillators> phase_i;
    std::array<double, kOscillators> phase_q;
};

/** An interval lo <= |h|^2 <= hi. */
struct PowerInterval {
    double lo;
    double hi;
};

/**
 * A JakesFader's bank in pair form. Oscillators m and pairOf(m)
 * have opposite Doppler, so with w = 2 pi f_D t, c_m the frequency
 * scale and phi, phi' the pair's phases, each pair sums to
 * cos(w c_m) (cos phi + cos phi') - sin(w c_m) (sin phi - sin phi').
 * Both components of the gain then follow from 8 sin/cos pairs of
 * w c_m and a per-pair table -- about a third of gainAt()'s 32
 * cosines -- and powerAt() turns them into a rigorous interval
 * around std::norm(gainAt(t)) (derivation in docs/ARCHITECTURE.md,
 * "Proportional-fair pruning"). The proportional-fair pick ranks
 * users by it and calls gainAt() only for those it cannot rule out.
 */
class JakesPairForm
{
  public:
    /** Tabulate @p fader's pairs (once per bank). */
    explicit JakesPairForm(const JakesFader &fader);

    /**
     * lo <= std::norm(fader.gainAt(@p t_us)) <= hi, rounding of
     * both forms included. The width is at most 2.5e-13 x for
     * x = |2 pi f_D t|: about 1e-12 over 200 slots of 2 ms at 10 Hz.
     */
    PowerInterval powerAt(double t_us) const;

  private:
    static constexpr int kPairs = JakesFader::kOscillators / 2;

    /** 2 pi f_D, rounded exactly as gainAt() rounds it. */
    double two_pi_doppler;
    std::array<double, kPairs> freq_scale; // c_m
    // cos phi + cos phi' and sin phi - sin phi', per component.
    std::array<double, kPairs> cos_i;
    std::array<double, kPairs> sin_i;
    std::array<double, kPairs> cos_q;
    std::array<double, kPairs> sin_q;
    // Error bound of either component (before gainAt()'s 1/4
    // scaling): slack_x * |w| + slack_0.
    double slack_x;
    double slack_0;
};

/** RayleighChannel's parameters, one field per config key. */
struct RayleighParams {
    /** Keys snr_db (mean Es/N0), seed, threads, common_noise. */
    AwgnParams awgn = {};
    /** Key doppler_hz: maximum Doppler frequency. */
    double dopplerHz = 20.0;
    /** Key packet_interval_us: packet start spacing. */
    double packetIntervalUs = 2000.0;
    /** Key block_fading: one gain per packet, not per OFDM symbol. */
    bool blockFading = false;

    template <typename V>
    void visitKeys(V &v)
    {
        awgn.visitKeys(v);
        v("doppler_hz", dopplerHz, li::atLeast(0.0));
        v("packet_interval_us", packetIntervalUs, li::above(0.0));
        v("block_fading", blockFading);
    }
};

/** Rayleigh flat-fading + AWGN channel. */
class RayleighChannel : public Channel
{
  public:
    using Params = RayleighParams;
    explicit RayleighChannel(const Params &p = {});

    std::string name() const override { return "rayleigh"; }
    void apply(SampleSpan samples, std::uint64_t packet_index) override;
    Sample impairSample(Sample s, std::uint64_t packet_index,
                        std::uint64_t sample_index) const override;
    Sample gain(std::uint64_t packet_index,
                int symbol_index) const override;
    double noiseVariance() const override
    {
        return awgn.noiseVariance();
    }

  private:
    /** Fading gain at absolute time @p t_us (microseconds). */
    Sample gainAt(double t_us) const { return fader.gainAt(t_us); }

    AwgnChannel awgn;
    JakesFader fader;
    double packet_interval_us;
    bool block_fading_;
};

/** Ar1FadingChannel's parameters, one field per config key. */
struct Ar1Params {
    /** Keys snr_db (mean Es/N0), seed, threads; no common_noise. */
    AwgnParams awgn = {};
    /** Key doppler_hz: maximum Doppler frequency. */
    double dopplerHz = 30.0;
    /** Key frame_interval_us: slot spacing, the AR(1) sampling interval. */
    double frameIntervalUs = 2000.0;

    template <typename V>
    void visitKeys(V &v)
    {
        awgn.visitNoiseKeys(v);
        v("doppler_hz", dopplerHz, li::atLeast(0.0));
        v("frame_interval_us", frameIntervalUs, li::above(0.0));
    }
};

/**
 * Block-correlated Rayleigh fading + AWGN for multi-user network
 * simulation: one complex gain per frame slot, evolved by a
 * Doppler-parameterized first-order autoregression
 *
 *     h[0] = w[0],   h[n] = rho * h[n-1] + sqrt(1 - rho^2) * w[n]
 *
 * with w[n] ~ CN(0, 1) drawn from the counter-based generator and
 * rho = J0(2 pi f_d T) (Clarke's autocorrelation sampled at the
 * frame interval T). Unlike the sum-of-sinusoids RayleighChannel,
 * the process is defined per *slot index*, so a link that
 * retransmits in a later slot sees a correlated-but-evolved gain --
 * the temporal structure a rate-adaptation loop has to track.
 *
 * The gain at slot n is a pure function of (seed, n) through the
 * recurrence; an internal cursor makes the sequential access pattern
 * of a frame-by-frame simulation O(1) per slot while arbitrary
 * (replay) indices remain available by recomputation. Instances are
 * not safe for concurrent use; in NetworkSim every link owns one.
 */
class Ar1FadingChannel : public Channel
{
  public:
    using Params = Ar1Params;
    explicit Ar1FadingChannel(const Params &p = {});

    std::string name() const override { return "ar1"; }
    void apply(SampleSpan samples, std::uint64_t packet_index) override;
    Sample impairSample(Sample s, std::uint64_t packet_index,
                        std::uint64_t sample_index) const override;
    /** Block fading: one gain per slot, symbol index ignored. */
    Sample gain(std::uint64_t packet_index,
                int symbol_index) const override;
    double noiseVariance() const override
    {
        return awgn.noiseVariance();
    }

    /** AR(1) coefficient J0(2 pi f_d T), clamped to [0, 1). */
    double rho() const { return rho_; }

  private:
    /** Gain at slot @p n via the cached recurrence. */
    Sample gainAt(std::uint64_t n) const;

    /** Unit-variance complex innovation w[n]. */
    Sample innovation(std::uint64_t n) const;

    AwgnChannel awgn;
    double rho_;
    double innov_scale; // sqrt(1 - rho^2)
    CounterRng innovations;
    // Sequential-access cursor; mutable because gain() is
    // observationally const (the gain sequence is a pure function
    // of the seed).
    mutable bool cache_valid = false;
    mutable std::uint64_t cache_index = 0;
    mutable Sample cache_gain = Sample(0.0, 0.0);
};

} // namespace channel
} // namespace wilis

#endif // WILIS_CHANNEL_FADING_HH
