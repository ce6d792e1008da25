#include "util/stats.hh"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "util/log.hh"

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

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), width_((hi - lo) / static_cast<double>(bins)), counts_(bins)
{
    if (bins == 0 || hi <= lo)
        fatal("Histogram with empty range");
}

void
Histogram::add(double x)
{
    double idx = (x - lo_) / width_;
    std::size_t bin;
    if (idx < 0.0) {
        bin = 0;
    } else if (idx >= static_cast<double>(counts_.size())) {
        bin = counts_.size() - 1;
    } else {
        bin = static_cast<std::size_t>(idx);
    }
    ++counts_[bin];
    ++total_;
}

double
Histogram::percentile(double p) const
{
    if (total_ == 0)
        return lo_;
    const double target = p * static_cast<double>(total_);
    double cum = 0.0;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
        cum += static_cast<double>(counts_[i]);
        if (cum >= target)
            return binLo(i + 1);
    }
    return binLo(counts_.size());
}

std::string
Histogram::toString() const
{
    std::ostringstream os;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
        if (!counts_[i])
            continue;
        os << binLo(i) << ".." << binLo(i + 1) << ": "
           << counts_[i] << "\n";
    }
    return os.str();
}

} // namespace flashcache
