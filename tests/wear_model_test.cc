/**
 * @file
 * Tests for the cell-lifetime wear-out model and the per-page
 * order-statistics health sampling (paper section 4.1.3).
 */

#include <gtest/gtest.h>

#include <cmath>

#include "reliability/wear_model.hh"
#include "support/page_health.hh"
#include "util/rng.hh"
#include "util/stats.hh"

namespace flashcache {
namespace {

TEST(CellLifetimeModelTest, AnchorCalibration)
{
    CellLifetimeModel m;
    // The datasheet anchor: P(cell dead by 100k cycles) = 1e-4.
    EXPECT_NEAR(m.cellFailProb(1e5), 1e-4, 1e-6);
}

TEST(CellLifetimeModelTest, FailProbMonotoneInCycles)
{
    CellLifetimeModel m;
    double prev = 0.0;
    for (double c = 1e3; c < 1e9; c *= 3.0) {
        const double p = m.cellFailProb(c);
        EXPECT_GE(p, prev);
        prev = p;
    }
    EXPECT_DOUBLE_EQ(m.cellFailProb(0.0), 0.0);
}

TEST(CellLifetimeModelTest, InverseRoundTrip)
{
    CellLifetimeModel m;
    for (double p : {1e-8, 1e-4, 1e-2, 0.5}) {
        const double c = m.cyclesAtFailProb(p);
        EXPECT_NEAR(m.cellFailProb(c), p, p * 1e-6 + 1e-12);
    }
}

TEST(CellLifetimeModelTest, WeakPageOffsetHurts)
{
    CellLifetimeModel m;
    EXPECT_GT(m.cellFailProb(1e5, -1.0), m.cellFailProb(1e5, 0.0));
    EXPECT_LT(m.cellFailProb(1e5, 1.0), m.cellFailProb(1e5, 0.0));
}

TEST(CellLifetimeModelTest, MaxTolerableMatchesPaperShape)
{
    // Figure 6(b): ~1e5 cycles at t = 1, rising to millions by
    // t = 10 with diminishing returns; spatial variation lowers it.
    CellLifetimeModel m;
    const unsigned page_bits = (2048 + 64) * 8;

    const double n1 = m.maxTolerableCycles(1, page_bits, 0.0);
    const double n10 = m.maxTolerableCycles(10, page_bits, 0.0);
    EXPECT_GT(n1, 3e4);
    EXPECT_LT(n1, 3e5);
    EXPECT_GT(n10 / n1, 10.0);
    EXPECT_LT(n10 / n1, 300.0);

    // Monotone increasing with diminishing ratio.
    double prev = 0.0, prev_ratio = 1e9;
    for (unsigned t = 1; t <= 10; ++t) {
        const double n = m.maxTolerableCycles(t, page_bits, 0.0);
        EXPECT_GT(n, prev) << t;
        if (prev > 0.0) {
            const double ratio = n / prev;
            EXPECT_LE(ratio, prev_ratio * 1.10) << t;
            prev_ratio = ratio;
        }
        prev = n;
    }
}

/** Spatial stddev sweep mirroring the Figure 6(b) series. */
class SpatialSweep : public ::testing::TestWithParam<double>
{
};

TEST_P(SpatialSweep, SpatialVariationReducesLifetime)
{
    CellLifetimeModel m;
    const unsigned page_bits = (2048 + 64) * 8;
    const double s = GetParam();
    for (unsigned t : {2u, 6u, 10u}) {
        const double base = m.maxTolerableCycles(t, page_bits, 0.0);
        const double shifted = m.maxTolerableCycles(t, page_bits, s);
        EXPECT_LT(shifted, base) << "t=" << t << " s=" << s;
    }
}

INSTANTIATE_TEST_SUITE_P(PaperSeries, SpatialSweep,
                         ::testing::Values(0.05, 0.10, 0.20));

TEST(PageHealthTest, WeakestLifetimesAscending)
{
    CellLifetimeModel m;
    Rng rng(1);
    const auto v = sampleWeakestLifetimes(m, rng, 16896, 16, 0.0);
    ASSERT_EQ(v.size(), 16u);
    for (std::size_t i = 1; i < v.size(); ++i)
        EXPECT_GE(v[i], v[i - 1]);
    EXPECT_GT(v[0], 0.0);
}

TEST(PageHealthTest, HardErrorsMonotoneAndMatchesOnsets)
{
    CellLifetimeModel m;
    Rng rng(2);
    PageHealth ph(m, rng, 16896, 16);
    unsigned prev = 0;
    for (double c = 1e2; c < 1e12; c *= 4.0) {
        const unsigned e = ph.hardErrors(c);
        EXPECT_GE(e, prev);
        prev = e;
    }
    // Just past onset(i), exactly i+1 errors.
    for (unsigned i = 0; i < 4; ++i) {
        const double onset = ph.errorOnset(i);
        if (!std::isfinite(onset))
            break;
        EXPECT_EQ(ph.hardErrors(onset * 1.0000001), i + 1);
    }
    EXPECT_EQ(ph.hardErrors(0.0), 0u);
}

TEST(PageHealthTest, FirstErrorOnsetDistribution)
{
    // The minimum of n cell lifetimes should concentrate around
    // cyclesAtFailProb(1/n): check the empirical median lands within
    // a decade of the analytic one.
    CellLifetimeModel m;
    Rng rng(3);
    const unsigned n = 16896;
    RunningStat log_onset;
    for (int i = 0; i < 300; ++i) {
        PageHealth ph(m, rng, n, 4);
        log_onset.add(std::log10(ph.errorOnset(0)));
    }
    const double analytic = std::log10(m.cyclesAtFailProb(
        1.0 / static_cast<double>(n)));
    EXPECT_NEAR(log_onset.mean(), analytic, 1.0);
}

TEST(PageHealthTest, WeakPagesFailEarlier)
{
    CellLifetimeModel m;
    Rng a(4), b(4);
    PageHealth healthy(m, a, 16896, 8, 0.0);
    PageHealth weak(m, b, 16896, 8, -2.0);
    EXPECT_LT(weak.errorOnset(0), healthy.errorOnset(0));
}

TEST(PageHealthTest, SaturatesAtTrackedCells)
{
    CellLifetimeModel m;
    Rng rng(5);
    PageHealth ph(m, rng, 100, 8);
    EXPECT_EQ(ph.tracked(), 8u);
    EXPECT_EQ(ph.hardErrors(1e300), 8u);
    EXPECT_TRUE(std::isinf(ph.errorOnset(8)));
}

TEST(PageHealthTest, AcceleratedModelForSimulation)
{
    // Benches scale endurance down for fast failure runs; the model
    // must stay well behaved at tiny nominal cycles.
    WearParams p;
    p.nominalCycles = 50;
    p.sigmaDecades = 0.8;
    CellLifetimeModel m(p);
    Rng rng(6);
    PageHealth ph(m, rng, 16896, 16);
    EXPECT_GT(ph.hardErrors(1e6), 0u);
}

} // namespace
} // namespace flashcache
