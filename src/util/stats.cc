#include "util/stats.hh"

#include <algorithm>
#include <bit>
#include <cmath>

namespace flashcache {

void
RunningStat::add(double x)
{
    if (n_ == 0) {
        min_ = max_ = x;
    } else {
        min_ = std::min(min_, x);
        max_ = std::max(max_, x);
    }
    ++n_;
    sum_ += x;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
}

void
RunningStat::reset()
{
    *this = RunningStat();
}

double
RunningStat::variance() const
{
    if (n_ < 2)
        return 0.0;
    return m2_ / static_cast<double>(n_);
}

double
RunningStat::stddev() const
{
    return std::sqrt(variance());
}

double
RatioStat::missRate() const
{
    const std::uint64_t t = total();
    return t ? static_cast<double>(misses_) / static_cast<double>(t) : 0.0;
}

double
RatioStat::hitRate() const
{
    const std::uint64_t t = total();
    return t ? static_cast<double>(hits_) / static_cast<double>(t) : 0.0;
}

namespace {

static_assert(Histogram::kSubBins == 16, "add() reads four mantissa bits");

/** The histogram's floor, 2^kMinExp s. */
constexpr double kFloor =
    1.0 / static_cast<double>(1ull << -Histogram::kMinExp);

/** The floor's key in add(): its biased exponent, then four zero
 *  mantissa bits. */
constexpr std::uint64_t kFloorKey =
    static_cast<std::uint64_t>(1023 + Histogram::kMinExp) << 4;

} // namespace

void
Histogram::add(double x)
{
    std::size_t bin = 0;
    if (x > kFloor) {
        // For x in [2^e, 2^(e+1)) the top 16 bits of a positive double
        // hold (e + 1023) * 16 plus its top four mantissa bits, the
        // sub-bin; less the floor's key, that is the bin index.
        const std::uint64_t key = std::bit_cast<std::uint64_t>(x) >> 48;
        bin = std::min<std::uint64_t>(key - kFloorKey, kBins - 1);
    }
    ++counts_[bin];
    ++total_;
}

void
Histogram::merge(const Histogram& other)
{
    for (std::size_t i = 0; i < kBins; ++i)
        counts_[i] += other.counts_[i];
    total_ += other.total_;
}

double
Histogram::binLo(std::size_t i) const
{
    return std::ldexp(1.0 + static_cast<double>(i % kSubBins) / kSubBins,
                      kMinExp + static_cast<int>(i / kSubBins));
}

double
Histogram::percentile(double p) const
{
    if (total_ == 0)
        return 0.0;
    const double target = p * static_cast<double>(total_);
    double cum = 0.0;
    for (std::size_t i = 0; i < kBins; ++i) {
        const auto c = static_cast<double>(counts_[i]);
        if (c > 0 && cum + c >= target) {
            const double frac = (target - cum) / c;
            return binLo(i) + frac * (binLo(i + 1) - binLo(i));
        }
        cum += c;
    }
    return binLo(kBins);
}

} // namespace flashcache
