#include "channel/awgn.hh"

#include <algorithm>
#include <cmath>

#include "common/kernels.hh"
#include "common/lockstep.hh"
#include "common/logging.hh"

namespace wilis {
namespace channel {

AwgnChannel::AwgnChannel(const Params &p)
    : seed(p.seed), common_noise_(p.commonNoise), threads_(p.threads)
{
    setSnrDb(p.snrDb);
}

void
AwgnChannel::setSnrDb(double snr_db)
{
    // Unit average symbol energy and unitary FFTs make the
    // per-subcarrier Es/N0 equal to 1/N0 with N0 the per-sample
    // time-domain noise variance.
    n0 = std::pow(10.0, -snr_db / 10.0);
    sigma = std::sqrt(n0 / 2.0);
}

void
AwgnChannel::addNoiseBlock(SampleSpan samples,
                           std::uint64_t packet_index,
                           size_t block) const
{
    CounterRng rng = CounterRng(seed)
                         .fork(common_noise_ ? 0 : packet_index)
                         .fork(0x40E5 + block);
    const size_t begin = block * kBlockSize;
    const size_t end = std::min(begin + kBlockSize, samples.size());
    const size_t count = end - begin;

    // Deviate generation stays scalar (Box-Muller's log/cos/sin have
    // no bit-exact vector form); the injection itself goes through
    // the SIMD kernel layer. Stack scratch keeps the block
    // allocation-free and thread-safe on a team.
    double gauss[2 * kBlockSize];
    for (size_t i = 0; i < count; ++i)
        GaussianSource::pairAt(rng, i, gauss[2 * i],
                               gauss[2 * i + 1]);
    kernels::ops().axpyNoise(samples.data() + begin, count, sigma,
                             gauss);
}

Sample
AwgnChannel::impairSample(Sample s, std::uint64_t packet_index,
                          std::uint64_t sample_index) const
{
    // Reproduce exactly the draw apply() makes for this position.
    const std::uint64_t block = sample_index / kBlockSize;
    CounterRng rng = CounterRng(seed)
                         .fork(common_noise_ ? 0 : packet_index)
                         .fork(0x40E5 + block);
    double g0, g1;
    GaussianSource::pairAt(rng, sample_index % kBlockSize, g0, g1);
    return s + Sample(sigma * g0, sigma * g1);
}

void
AwgnChannel::apply(SampleSpan samples, std::uint64_t packet_index)
{
    const size_t blocks =
        (samples.size() + kBlockSize - 1) / kBlockSize;
    // A team is spawned per call: the single-threaded default (every
    // network engine's channel) pays nothing for it.
    const int workers = LockstepTeam::workerCount(threads_, blocks);
    if (workers > 1) {
        LockstepTeam team(workers);
        team.forEach(blocks, [&](int, std::uint64_t b) {
            addNoiseBlock(samples, packet_index,
                          static_cast<size_t>(b));
        });
    } else {
        for (size_t b = 0; b < blocks; ++b)
            addNoiseBlock(samples, packet_index, b);
    }
}

} // namespace channel
} // namespace wilis
