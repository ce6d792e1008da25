/**
 * @file
 * Statistics primitives used by every flashcache module: streaming
 * mean/variance, ratio counters, and fixed-bin histograms. These back
 * the FGST (flash global status table) and the per-bench reporting.
 */

#ifndef FLASHCACHE_UTIL_STATS_HH
#define FLASHCACHE_UTIL_STATS_HH

#include <cstdint>
#include <string>
#include <vector>

namespace flashcache {

/**
 * Streaming mean/variance/min/max accumulator (Welford's algorithm).
 */
class RunningStat
{
  public:
    /** Fold one sample into the accumulator. */
    void add(double x);

    /** Remove all samples. */
    void reset();

    std::uint64_t count() const { return n_; }
    double mean() const { return n_ ? mean_ : 0.0; }

    /** Population variance; 0 with fewer than two samples. */
    double variance() const;

    /** Population standard deviation. */
    double stddev() const;

    double min() const { return n_ ? min_ : 0.0; }
    double max() const { return n_ ? max_ : 0.0; }
    double sum() const { return sum_; }

  private:
    std::uint64_t n_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
    double sum_ = 0.0;
};

/**
 * Hit/miss style ratio counter.
 */
class RatioStat
{
  public:
    void hit() { ++hits_; }
    void miss() { ++misses_; }
    void reset() { hits_ = misses_ = 0; }

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    std::uint64_t total() const { return hits_ + misses_; }

    /** Miss ratio in [0,1]; 0 when no events were recorded. */
    double missRate() const;

    /** Hit ratio in [0,1]; 0 when no events were recorded. */
    double hitRate() const;

  private:
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
};

/**
 * Fixed-width-bin histogram over [lo, hi); out-of-range samples clamp
 * into the first/last bin.
 */
class Histogram
{
  public:
    Histogram(double lo, double hi, std::size_t bins);

    void add(double x);

    std::size_t bins() const { return counts_.size(); }
    std::uint64_t binCount(std::size_t i) const { return counts_.at(i); }

    /** Lower edge of bin i (i == bins() gives the upper range edge). */
    double
    binLo(std::size_t i) const
    {
        return lo_ + static_cast<double>(i) * width_;
    }

    std::uint64_t total() const { return total_; }

    /** Value below which the given fraction of samples fall. */
    double percentile(double p) const;

    /** Render "lo..hi: count" lines, skipping empty bins. */
    std::string toString() const;

  private:
    double lo_;
    double width_;
    std::vector<std::uint64_t> counts_;
    std::uint64_t total_ = 0;
};

} // namespace flashcache

#endif // FLASHCACHE_UTIL_STATS_HH
