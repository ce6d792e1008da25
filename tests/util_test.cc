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
#include <sstream>
#include <string>
#include <vector>

#include "util/atomic_file.hh"
#include "util/log.hh"
#include "util/mathx.hh"
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

TEST(HistogramTest, BinningAndClamping)
{
    Histogram h(0.0, 10.0, 10);
    h.add(0.5);
    h.add(5.5);
    h.add(-3.0);  // clamps into bin 0
    h.add(42.0);  // clamps into last bin
    EXPECT_EQ(h.total(), 4u);
    EXPECT_EQ(h.binCount(0), 2u);
    EXPECT_EQ(h.binCount(5), 1u);
    EXPECT_EQ(h.binCount(9), 1u);
}

TEST(HistogramTest, Percentile)
{
    Histogram h(0.0, 100.0, 100);
    for (int i = 0; i < 100; ++i)
        h.add(i + 0.5);
    EXPECT_NEAR(h.percentile(0.5), 50.0, 1.5);
    EXPECT_NEAR(h.percentile(0.99), 99.0, 1.5);
}

TEST(HistogramTest, EmptyPercentileIsRangeLow)
{
    Histogram h(2.0, 10.0, 4);
    EXPECT_EQ(h.total(), 0u);
    EXPECT_DOUBLE_EQ(h.percentile(0.0), 2.0);
    EXPECT_DOUBLE_EQ(h.percentile(0.5), 2.0);
    EXPECT_DOUBLE_EQ(h.percentile(1.0), 2.0);
}

TEST(HistogramTest, SingleBinPercentiles)
{
    // One bin: every sample lands in [0, 8); every percentile is the
    // bin's upper edge, which must equal the range's upper edge.
    Histogram h(0.0, 8.0, 1);
    h.add(3.0);
    h.add(7.9);
    h.add(100.0); // clamped into the only bin
    EXPECT_DOUBLE_EQ(h.percentile(0.01), 8.0);
    EXPECT_DOUBLE_EQ(h.percentile(0.5), 8.0);
    EXPECT_DOUBLE_EQ(h.percentile(1.0), 8.0);
}

TEST(HistogramTest, BinEdgesComeFromIndexNotTruncation)
{
    // binLo takes the bin index; a fractional-looking range must not
    // truncate edges (the pre-fix signature took the index as a
    // double and was called with values it silently floored).
    Histogram h(0.25, 2.25, 4); // width 0.5
    EXPECT_DOUBLE_EQ(h.binLo(0), 0.25);
    EXPECT_DOUBLE_EQ(h.binLo(1), 0.75);
    EXPECT_DOUBLE_EQ(h.binLo(3), 1.75);
    EXPECT_DOUBLE_EQ(h.binLo(4), 2.25); // upper range edge
    h.add(1.0);
    EXPECT_DOUBLE_EQ(h.percentile(1.0), 1.25); // upper edge of bin 1
}

TEST(HistogramTest, AllMassInLastBinPercentile)
{
    Histogram h(0.0, 4.0, 4);
    h.add(3.5);
    h.add(9.0); // clamped into the last bin
    EXPECT_DOUBLE_EQ(h.percentile(0.5), 4.0);
    EXPECT_DOUBLE_EQ(h.percentile(1.0), 4.0);
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
