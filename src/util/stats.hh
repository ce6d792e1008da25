/**
 * @file
 * Statistics primitives used by every flashcache module: streaming
 * mean/variance, ratio counters, and a log-linear histogram. These back
 * the FGST (flash global status table) and the per-bench reporting.
 */

#ifndef FLASHCACHE_UTIL_STATS_HH
#define FLASHCACHE_UTIL_STATS_HH

#include <array>
#include <cstddef>
#include <cstdint>

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
 * Log-linear histogram of durations in seconds: 16 equal-width
 * sub-bins per power of two from 2^-30 s (~0.93 ns) to 2^14 s
 * (~4.5 h), 704 bins, each at most 6.25% of its lower edge. A sample
 * at or below the floor lands in the first bin, one above the range
 * in the last.
 */
class Histogram
{
  public:
    static constexpr int kSubBins = 16; ///< per power of two
    static constexpr int kMinExp = -30; ///< floor 2^kMinExp s
    static constexpr int kMaxExp = 14;  ///< ceiling 2^kMaxExp s
    static constexpr std::size_t kBins = (kMaxExp - kMinExp) * kSubBins;

    void add(double x);

    void merge(const Histogram& other);

    std::size_t bins() const { return kBins; }
    std::uint64_t binCount(std::size_t i) const { return counts_.at(i); }

    /** Lower edge of bin i (i == bins() gives the upper range edge). */
    double binLo(std::size_t i) const;

    std::uint64_t total() const { return total_; }

    /**
     * Value below which the fraction p (0..1) of samples fall,
     * interpolated linearly inside the bin that holds it; 0 with no
     * samples.
     */
    double percentile(double p) const;

  private:
    std::array<std::uint64_t, kBins> counts_{};
    std::uint64_t total_ = 0;
};

} // namespace flashcache

#endif // FLASHCACHE_UTIL_STATS_HH
