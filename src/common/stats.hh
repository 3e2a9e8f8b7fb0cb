/**
 * @file
 * Lightweight statistics accumulators used by the evaluation harness:
 * running mean/variance, log-spaced histograms for BER-vs-LLR curves,
 * and simple named counters.
 */

#ifndef WILIS_COMMON_STATS_HH
#define WILIS_COMMON_STATS_HH

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

namespace wilis {

/**
 * Running mean / *sample* variance accumulator (the n-1 Bessel
 * convention -- these accumulators summarize sampled simulation
 * outcomes, not whole populations).
 *
 * The state is moment sums of (x - offset), the offset being the
 * first sample seen: shifting by a ballpark location keeps the
 * squared sums small so variance() does not catastrophically cancel
 * for large-mean/small-spread streams, while the sums themselves
 * stay *exact* for integer-valued samples (latency slots, attempt
 * counts -- the streams the network simulator shards per user).
 * merge() translates the other accumulator's sums to this offset
 * and adds; every translation term is again exact on integer data,
 * so merging shards in any grouping is bit-equal to one single-pass
 * accumulation, and agrees to rounding error on real-valued data.
 *
 * The anchor is only as good as the first sample: a stream whose
 * opening sample is a far outlier from the rest (orders of
 * magnitude off the bulk location) re-creates the cancellation the
 * shift exists to avoid. Welford's recurrence would handle that,
 * but cannot make sharded merges bit-equal to a single pass; this
 * codebase's streams (latencies, attempt counts, noise deviates,
 * powers) are stationary, so the first sample is representative.
 */
class RunningStats
{
  public:
    /** Add one sample. */
    void
    add(double x)
    {
        if (n == 0)
            offset = x;
        n += 1;
        double d = x - offset;
        sum += d;
        sum_sq += d * d;
    }

    /** Number of samples seen. */
    std::uint64_t count() const { return n; }

    /** Sample mean (0 if empty). */
    double
    mean() const
    {
        return n ? offset + sum / static_cast<double>(n) : 0.0;
    }

    /** Sample variance, n-1 denominator (0 if fewer than 2 samples). */
    double
    variance() const
    {
        if (n < 2)
            return 0.0;
        // Guard the subtraction: rounding can push the centered sum
        // a hair negative when the variance is ~0.
        double centered =
            sum_sq - sum * sum / static_cast<double>(n);
        if (centered < 0.0)
            centered = 0.0;
        return centered / static_cast<double>(n - 1);
    }

    /** Sample standard deviation. */
    double stddev() const { return std::sqrt(variance()); }

    /**
     * Raw accumulator state, exposed for lossless transport: the
     * snapshot layer stores the four fields by bit pattern and the
     * campaign report serializes them with "%.17g", so a shipped
     * accumulator merges bit-equal to one that never left the
     * process.
     */
    struct State {
        /** Samples seen. */
        std::uint64_t n;
        /** Anchor (the first sample). */
        double offset;
        /** Sum of (x - offset). */
        double sum;
        /** Sum of (x - offset)^2. */
        double sum_sq;
    };

    /** Export the raw state. */
    State state() const { return {n, offset, sum, sum_sq}; }

    /** Rebuild an accumulator from transported raw state. */
    static RunningStats
    fromState(const State &s)
    {
        RunningStats r;
        r.n = s.n;
        r.offset = s.offset;
        r.sum = s.sum;
        r.sum_sq = s.sum_sq;
        return r;
    }

    /** Merge another accumulator into this one. */
    void
    merge(const RunningStats &other)
    {
        if (other.n == 0)
            return;
        if (n == 0) {
            *this = other;
            return;
        }
        // Translate the other shard's moments to this offset:
        // sum (x - o)^2 = sum (x - o') ^2 + s*(2*sum(x - o') + n*s)
        // with s = o' - o. Exact for integer samples and offsets.
        const double s = other.offset - offset;
        const double on = static_cast<double>(other.n);
        sum_sq += other.sum_sq + s * (2.0 * other.sum + on * s);
        sum += other.sum + on * s;
        n += other.n;
    }

  private:
    std::uint64_t n = 0;
    double offset = 0.0;
    double sum = 0.0;
    double sum_sq = 0.0;
};

/**
 * Per-bin error counting keyed by an integer index, used to build
 * "BER as a function of LLR bin" curves (Figure 5) and
 * "actual PBER per predicted-PBER decade" scatter summaries (Figure 6).
 */
class BinnedErrorCounter
{
  public:
    /** @param num_bins Number of bins; out-of-range indices clamp. */
    explicit BinnedErrorCounter(int num_bins)
        : totals(static_cast<size_t>(num_bins), 0),
          errors(static_cast<size_t>(num_bins), 0)
    {}

    /** Record one observation in @p bin; @p error true if bit wrong. */
    void
    record(int bin, bool error)
    {
        if (bin < 0)
            bin = 0;
        if (bin >= static_cast<int>(totals.size()))
            bin = static_cast<int>(totals.size()) - 1;
        totals[static_cast<size_t>(bin)] += 1;
        if (error)
            errors[static_cast<size_t>(bin)] += 1;
    }

    /** Number of bins. */
    int numBins() const { return static_cast<int>(totals.size()); }

    /** Total observations in @p bin. */
    std::uint64_t total(int bin) const
    {
        return totals[static_cast<size_t>(bin)];
    }

    /** Error observations in @p bin. */
    std::uint64_t errorCount(int bin) const
    {
        return errors[static_cast<size_t>(bin)];
    }

    /** Observed error rate in @p bin (0 if empty). */
    double
    rate(int bin) const
    {
        auto t = total(bin);
        return t ? static_cast<double>(errorCount(bin)) /
                       static_cast<double>(t)
                 : 0.0;
    }

    /** Merge counts from another counter with identical binning. */
    void
    merge(const BinnedErrorCounter &other)
    {
        for (size_t i = 0; i < totals.size(); ++i) {
            totals[i] += other.totals[i];
            errors[i] += other.errors[i];
        }
    }

  private:
    std::vector<std::uint64_t> totals;
    std::vector<std::uint64_t> errors;
};

/**
 * Fixed-binning linear histogram used by the network simulator for
 * per-user latency / retransmission / rate-usage distributions.
 * Values below the range clamp into the first bin, values at or
 * above the range into the last, so totals always equal the number
 * of add() calls and histograms with identical binning merge exactly.
 *
 * The bin array is allocated on the first add() (or the first merge
 * of a non-empty histogram): the network simulator constructs and
 * merges several histograms per user per run, the large majority of
 * which never see a sample, and eagerly zeroing 10k+ users' worth of
 * bins each rep is measurable against the SoA engine's slot loop.
 */
class Histogram
{
  public:
    /**
     * @param num_bins  Number of bins (>= 1).
     * @param bin_width Width of each bin (> 0).
     * @param lo        Lower edge of bin 0.
     */
    Histogram(int num_bins, double bin_width, double lo = 0.0);

    /** Record one observation (clamped into the edge bins). */
    void add(double x);

    /** Number of bins. */
    int numBins() const { return nbins_; }

    /** Observations recorded in @p bin. */
    std::uint64_t count(int bin) const
    {
        return counts.empty() ? 0
                              : counts[static_cast<size_t>(bin)];
    }

    /** Total observations recorded. */
    std::uint64_t total() const { return total_; }

    /** Lower edge of @p bin. */
    double binLo(int bin) const { return lo_ + bin * width_; }

    /**
     * Lower edge of the first bin at which the cumulative count
     * reaches fraction @p q of the observations (0 if empty; q is
     * clamped to [0, 1]). For discrete values recorded at bin lower
     * edges -- latency in whole slots, attempts -- this is the exact
     * quantile value.
     */
    double quantile(double q) const;

    /** Merge counts from a histogram with identical binning. */
    void merge(const Histogram &other);

    /**
     * Replace the contents with transported counts (snapshot resume
     * and campaign report merge). @p bin_counts must either be empty
     * (a histogram that never saw a sample) or have exactly
     * numBins() entries summing to @p total; otherwise the
     * histogram is left untouched and false is returned, for the
     * caller to reject the input that carried the counts.
     */
    [[nodiscard]] bool restore(const std::vector<std::uint64_t> &bin_counts,
                 std::uint64_t total);

  private:
    std::vector<std::uint64_t> counts; // empty until first sample
    int nbins_;
    double width_;
    double lo_;
    std::uint64_t total_ = 0;
};

/** Bit-error bookkeeping for a stream comparison. */
struct ErrorStats {
    /** Bits compared. */
    std::uint64_t bits = 0;
    /** Bits that differed. */
    std::uint64_t errors = 0;

    /** Observed bit-error rate. */
    double
    ber() const
    {
        return bits ? static_cast<double>(errors) /
                          static_cast<double>(bits)
                    : 0.0;
    }

    /** Accumulate another comparison's counts. */
    void
    merge(const ErrorStats &other)
    {
        bits += other.bits;
        errors += other.errors;
    }
};

} // namespace wilis

#endif // WILIS_COMMON_STATS_HH
