/**
 * @file
 * Unit tests for the util substrate: statistics accumulators,
 * histograms, logging, and the numeric helpers backing the
 * reliability model.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "util/atomic_file.hh"
#include "util/log.hh"
#include "util/mathx.hh"
#include "util/rng.hh"
#include "util/stats.hh"
#include "util/types.hh"

namespace flashcache {
namespace {

TEST(UnitsTest, ConvertsToSeconds)
{
    EXPECT_DOUBLE_EQ(nanoseconds(50), 50e-9);
    EXPECT_DOUBLE_EQ(microseconds(25), 25e-6);
    EXPECT_DOUBLE_EQ(milliseconds(1.5), 1.5e-3);
    EXPECT_EQ(kib(2), 2048u);
    EXPECT_EQ(mib(1), 1048576u);
    EXPECT_EQ(gib(2), 2ull << 30);
}

TEST(RunningStatTest, EmptyIsZero)
{
    RunningStat s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(RunningStatTest, MeanAndVariance)
{
    RunningStat s;
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(x);
    EXPECT_EQ(s.count(), 8u);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_DOUBLE_EQ(s.variance(), 4.0);
    EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
    EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStatTest, ResetClears)
{
    RunningStat s;
    s.add(1.0);
    s.add(2.0);
    s.reset();
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.sum(), 0.0);
}

TEST(RatioStatTest, Rates)
{
    RatioStat r;
    EXPECT_DOUBLE_EQ(r.missRate(), 0.0);
    for (int i = 0; i < 3; ++i)
        r.hit();
    r.miss();
    EXPECT_EQ(r.total(), 4u);
    EXPECT_DOUBLE_EQ(r.missRate(), 0.25);
    EXPECT_DOUBLE_EQ(r.hitRate(), 0.75);
}

TEST(HistogramTest, BinEdgesComeFromIndexNotTruncation)
{
    // Sixteen sub-bins per power of two from 2^-30 s to 2^14 s; bin
    // 480 starts at 2^0.
    Histogram h;
    ASSERT_EQ(h.bins(), 704u);
    EXPECT_EQ(h.binLo(0), std::ldexp(1.0, -30));
    EXPECT_EQ(h.binLo(16), std::ldexp(1.0, -29));
    EXPECT_EQ(h.binLo(480), 1.0);
    EXPECT_EQ(h.binLo(481), 1.0625);
    EXPECT_EQ(h.binLo(495), 1.9375);
    EXPECT_EQ(h.binLo(496), 2.0);
    EXPECT_EQ(h.binLo(704), 16384.0); // upper range edge
    // A sample on an edge opens that bin; one just below it closes the
    // bin before.
    h.add(1.0);
    h.add(1.0625);
    h.add(std::nextafter(1.0625, 0.0));
    h.add(std::nextafter(2.0, 0.0));
    h.add(2.0);
    h.add(0.5);
    h.add(0.5 * 1.0625);
    EXPECT_EQ(h.binCount(480), 2u);
    EXPECT_EQ(h.binCount(481), 1u);
    EXPECT_EQ(h.binCount(495), 1u);
    EXPECT_EQ(h.binCount(496), 1u);
    EXPECT_EQ(h.binCount(464), 1u);
    EXPECT_EQ(h.binCount(465), 1u);
    EXPECT_EQ(h.total(), 7u);
    // Every bin is at most 1/16 of its lower edge wide.
    for (std::size_t i = 0; i < h.bins(); ++i)
        EXPECT_LE(h.binLo(i + 1) - h.binLo(i), h.binLo(i) / 16.0) << i;
}

TEST(HistogramTest, BinningAndClamping)
{
    // At or below the floor: the first bin; above the range: the last.
    Histogram h;
    h.add(-3.0);
    h.add(0.0);
    h.add(1e-12);
    h.add(std::ldexp(1.0, -30));
    h.add(std::nextafter(std::ldexp(1.0, -30), 1.0));
    h.add(std::nextafter(16384.0, 0.0));
    h.add(16384.0);
    h.add(1e9);
    h.add(std::numeric_limits<double>::infinity());
    EXPECT_EQ(h.total(), 9u);
    EXPECT_EQ(h.binCount(0), 5u);
    EXPECT_EQ(h.binCount(h.bins() - 1), 4u);
}

TEST(HistogramTest, EmptyIsZero)
{
    Histogram h;
    EXPECT_EQ(h.total(), 0u);
    EXPECT_EQ(h.percentile(0.0), 0.0);
    EXPECT_EQ(h.percentile(0.5), 0.0);
    EXPECT_EQ(h.percentile(1.0), 0.0);
}

TEST(HistogramTest, SingleBinPercentiles)
{
    // Four samples in [1, 1.0625): percentiles interpolate linearly
    // across the bin, from its lower to its upper edge.
    Histogram h;
    for (const double x : {1.0, 1.01, 1.02, 1.06})
        h.add(x);
    EXPECT_EQ(h.percentile(0.0), 1.0);
    EXPECT_EQ(h.percentile(0.25), 1.015625);
    EXPECT_EQ(h.percentile(0.5), 1.03125);
    EXPECT_EQ(h.percentile(1.0), 1.0625);
}

TEST(HistogramTest, AllMassInLastBinPercentile)
{
    // The last bin [15872, 16384) also holds every larger sample.
    Histogram h;
    h.add(16000.0);
    h.add(1e6);
    EXPECT_EQ(h.percentile(0.5), 16128.0);
    EXPECT_EQ(h.percentile(1.0), 16384.0);
}

TEST(HistogramTest, PercentilesLandInTheRightBucket)
{
    Histogram h;
    for (int i = 0; i < 100; ++i)
        h.add(1e-6);
    h.add(1e-3);
    EXPECT_EQ(h.total(), 101u);
    // Each bin is at most 6.25% wide.
    EXPECT_GT(h.percentile(0.50), 1e-6 / 1.0625);
    EXPECT_LT(h.percentile(0.50), 1e-6 * 1.0625);
    EXPECT_GT(h.percentile(1.0), 1e-3);
    EXPECT_LT(h.percentile(1.0), 1e-3 * 1.0625);
    EXPECT_LE(h.percentile(0.50), h.percentile(0.95));
    EXPECT_LE(h.percentile(0.95), h.percentile(0.99));
}

TEST(HistogramTest, MergeSumsCounts)
{
    Histogram a, b, small;
    a.add(1e-6);
    small.add(1e-6);
    b.add(1e-3);
    b.add(2e-3);
    a.merge(b);
    EXPECT_EQ(a.total(), 3u);
    for (std::size_t i = 0; i < a.bins(); ++i)
        EXPECT_EQ(a.binCount(i), small.binCount(i) + b.binCount(i)) << i;
    EXPECT_GT(a.percentile(0.99), 1e-4); // tail came from b
}

TEST(HistogramTest, Percentile)
{
    // 10^5 exponential draws, mean 2 ms: the interpolated p50 and p99
    // sit within one bin width (1/16) of the exact quantiles.
    const double mean = 2e-3;
    Histogram h;
    Rng rng(7);
    for (int i = 0; i < 100000; ++i)
        h.add(rng.exponential(1.0 / mean));
    EXPECT_NEAR(h.percentile(0.50), mean * std::log(2.0),
                mean * std::log(2.0) / 16.0);
    EXPECT_NEAR(h.percentile(0.99), mean * std::log(100.0),
                mean * std::log(100.0) / 16.0);
}

TEST(LogTest, WarnPrintsPrefixedLineOnStderr)
{
    testing::internal::CaptureStderr();
    warn("disk nearly full");
    warn("second");
    EXPECT_EQ(testing::internal::GetCapturedStderr(),
              "warn: disk nearly full\nwarn: second\n");
}

TEST(MathxTest, NormalCdfKnownValues)
{
    EXPECT_NEAR(normalCdf(0.0), 0.5, 1e-12);
    EXPECT_NEAR(normalCdf(1.0), 0.8413447460685429, 1e-9);
    EXPECT_NEAR(normalCdf(-1.96), 0.024997895, 1e-6);
}

TEST(MathxTest, NormalCdfInvRoundTrip)
{
    for (double p : {1e-6, 1e-4, 0.01, 0.3, 0.5, 0.7, 0.99, 1.0 - 1e-6}) {
        const double x = normalCdfInv(p);
        EXPECT_NEAR(normalCdf(x), p, 1e-9) << "p = " << p;
    }
}

TEST(MathxTest, LogChoose)
{
    EXPECT_NEAR(logChoose(5, 2), std::log(10.0), 1e-12);
    EXPECT_NEAR(logChoose(52, 5), std::log(2598960.0), 1e-9);
    EXPECT_EQ(logChoose(3, 7), -std::numeric_limits<double>::infinity());
}

TEST(MathxTest, BinomialTailMatchesDirectSum)
{
    // Small case computable exactly: n = 10, p = 0.3, P(X > 2).
    const double p = 0.3;
    double direct = 0.0;
    for (unsigned k = 3; k <= 10; ++k) {
        direct += std::exp(logChoose(10, k)) * std::pow(p, k) *
            std::pow(1 - p, 10 - k);
    }
    EXPECT_NEAR(binomialTailAbove(10, p, 2), direct, 1e-12);
}

TEST(MathxTest, BinomialTailEdgeCases)
{
    EXPECT_DOUBLE_EQ(binomialTailAbove(100, 0.0, 0), 0.0);
    EXPECT_DOUBLE_EQ(binomialTailAbove(100, 1.0, 99), 1.0);
    EXPECT_DOUBLE_EQ(binomialTailAbove(100, 1.0, 100), 0.0);
    EXPECT_DOUBLE_EQ(binomialTailAbove(100, 0.5, 100), 0.0);
}

TEST(MathxTest, BinomialTailMonotoneInThreshold)
{
    double prev = 1.0;
    for (unsigned t = 0; t < 12; ++t) {
        const double v = binomialTailAbove(16384, 1e-4, t);
        EXPECT_LE(v, prev);
        prev = v;
    }
}

TEST(AtomicFileTest, WritesAndReplacesWholeFiles)
{
    const std::string path =
        ::testing::TempDir() + "atomic_file_test.bin";
    std::remove(path.c_str());

    ASSERT_TRUE(atomicWriteFile(
        path, [](std::ostream& os) { os << "first version"; }));
    {
        std::ifstream in(path, std::ios::binary);
        std::stringstream ss;
        ss << in.rdbuf();
        EXPECT_EQ(ss.str(), "first version");
    }

    // Replacement is all-or-nothing: the new contents land whole.
    ASSERT_TRUE(atomicWriteFile(
        path, [](std::ostream& os) { os << "v2"; }));
    {
        std::ifstream in(path, std::ios::binary);
        std::stringstream ss;
        ss << in.rdbuf();
        EXPECT_EQ(ss.str(), "v2");
    }
    // No temporary left behind.
    EXPECT_FALSE(std::ifstream(path + ".tmp").good());
    std::remove(path.c_str());
}

TEST(AtomicFileTest, FailedWriteLeavesOriginalIntact)
{
    const std::string path =
        ::testing::TempDir() + "atomic_file_keep.bin";
    ASSERT_TRUE(atomicWriteFile(
        path, [](std::ostream& os) { os << "precious"; }));

    // A writer that poisons the stream: the replace must not happen.
    EXPECT_FALSE(atomicWriteFile(path, [](std::ostream& os) {
        os << "torn";
        os.setstate(std::ios::failbit);
    }));
    std::ifstream in(path, std::ios::binary);
    std::stringstream ss;
    ss << in.rdbuf();
    EXPECT_EQ(ss.str(), "precious");
    EXPECT_FALSE(std::ifstream(path + ".tmp").good());
    std::remove(path.c_str());
}

TEST(AtomicFileTest, UnwritableDirectoryFails)
{
    EXPECT_FALSE(atomicWriteFile(
        "/nonexistent-dir-xyz/file.bin",
        [](std::ostream& os) { os << "x"; }));
}

} // namespace
} // namespace flashcache
