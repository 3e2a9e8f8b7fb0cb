#include "common/stats.hh"

#include <algorithm>

#include "common/logging.hh"

namespace wilis {

Histogram::Histogram(int num_bins, double bin_width, double lo)
    : nbins_(num_bins), width_(bin_width), lo_(lo)
{
    wilis_assert(num_bins >= 1, "histogram needs >= 1 bin, got %d",
                 num_bins);
    wilis_assert(bin_width > 0.0, "histogram bin width %f <= 0",
                 bin_width);
}

void
Histogram::add(double x)
{
    if (counts.empty())
        counts.assign(static_cast<size_t>(nbins_), 0);
    // Clamp in double before the cast: converting a NaN or an
    // out-of-range double to int is undefined. NaN lands in bin 0.
    const double idx = (x - lo_) / width_;
    int bin = 0;
    if (idx >= static_cast<double>(nbins_ - 1))
        bin = nbins_ - 1;
    else if (idx > 0.0)
        bin = static_cast<int>(idx);
    counts[static_cast<size_t>(bin)] += 1;
    total_ += 1;
}

double
Histogram::quantile(double q) const
{
    if (total_ == 0)
        return 0.0;
    q = std::min(1.0, std::max(0.0, q));
    // Smallest bin whose cumulative count reaches q * total.
    double target = q * static_cast<double>(total_);
    std::uint64_t cum = 0;
    for (int b = 0; b < numBins(); ++b) {
        cum += count(b);
        if (static_cast<double>(cum) >= target)
            return binLo(b);
    }
    return binLo(numBins() - 1);
}

void
Histogram::merge(const Histogram &other)
{
    wilis_assert(other.numBins() == numBins() &&
                     other.width_ == width_ && other.lo_ == lo_,
                 "merging histograms with different binning");
    if (other.total_ == 0)
        return;
    if (counts.empty())
        counts.assign(static_cast<size_t>(nbins_), 0);
    for (int b = 0; b < numBins(); ++b)
        counts[static_cast<size_t>(b)] +=
            other.counts[static_cast<size_t>(b)];
    total_ += other.total_;
}

bool
Histogram::restore(const std::vector<std::uint64_t> &bin_counts,
                   std::uint64_t total)
{
    if (!bin_counts.empty() &&
        bin_counts.size() != static_cast<size_t>(nbins_))
        return false;
    std::uint64_t sum = 0;
    for (std::uint64_t c : bin_counts) {
        if (c > total - sum)
            return false;
        sum += c;
    }
    if (sum != total)
        return false;
    counts = bin_counts;
    total_ = total;
    return true;
}

} // namespace wilis
