/**
 * @file
 * Agreement tests between independently implemented layers of the
 * model stack: the sampled per-page error process must match the
 * analytic cell-failure CDF it is drawn from; the controller's
 * latency must decompose exactly into its device + ECC parts; the
 * workload generators must be deterministic and respect their
 * structural bounds.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "controller/memory_controller.hh"
#include "support/page_health.hh"
#include "util/stats.hh"
#include "workload/macro.hh"

namespace flashcache {
namespace {

/** Sampled error counts vs the analytic binomial mean, over ages. */
class HealthAgreement : public ::testing::TestWithParam<double>
{
};

TEST_P(HealthAgreement, MeanErrorsMatchAnalyticExpectation)
{
    const double log10_cycles = GetParam();
    const double cycles = std::pow(10.0, log10_cycles);
    CellLifetimeModel model;
    const unsigned bits = 16896;

    Rng rng(101);
    RunningStat sampled;
    const int pages = 2500;
    for (int i = 0; i < pages; ++i) {
        PageHealth ph(model, rng, bits, 16);
        sampled.add(ph.hardErrors(cycles));
    }
    const double analytic = bits * model.cellFailProb(cycles);
    if (analytic < 0.01) {
        EXPECT_LT(sampled.mean(), 0.05);
    } else {
        // Within 3 standard errors of the binomial mean (the tracked
        // set truncates above 16, which only matters much later).
        const double se = std::sqrt(analytic / pages) + 0.02 * analytic;
        EXPECT_NEAR(sampled.mean(), analytic, 3.0 * se + 0.02)
            << "at 10^" << log10_cycles << " cycles";
    }
}

INSTANTIATE_TEST_SUITE_P(AgeSweep, HealthAgreement,
                         ::testing::Values(4.0, 4.5, 5.0, 5.3));

TEST(ControllerTimingContract, ReadLatencyDecomposesExactly)
{
    CellLifetimeModel m;
    FlashGeometry g;
    g.numBlocks = 2;
    g.framesPerBlock = 2;
    FlashDevice dev(g, FlashTiming(), m, 5);
    FlashMemoryController ctrl(dev);

    for (std::uint8_t t : {0, 1, 6, 12}) {
        PageDescriptor desc{t, DensityMode::MLC};
        const PageAddress a{0, 0, 0};
        ctrl.writePage(a, desc);
        const auto res = ctrl.readPage(a, desc);
        EXPECT_DOUBLE_EQ(res.latency,
                         FlashTiming().mlcReadLatency +
                             ctrl.decodeLatency(t))
            << "t=" << unsigned(t);
        dev.eraseBlock(0);
    }
}

TEST(ControllerTimingContract, DecodeLatencyMatchesTimingModel)
{
    CellLifetimeModel m;
    FlashGeometry g;
    g.numBlocks = 2;
    g.framesPerBlock = 2;
    FlashDevice dev(g, FlashTiming(), m, 5);
    EccTimingModel timing;
    FlashMemoryController ctrl(dev, timing);
    for (unsigned t = 0; t <= 50; t += 5) {
        EXPECT_DOUBLE_EQ(ctrl.decodeLatency(t),
                         timing.decodeLatency(t).total() +
                             timing.crcLatency());
    }
}

TEST(WorkloadDeterminism, SameSeedSameTrace)
{
    for (const auto& cfg : table4MacroConfigs(0.01)) {
        auto g1 = makeMacro(cfg);
        auto g2 = makeMacro(cfg);
        Rng r1(42), r2(42);
        const Trace t1 = g1->generate(r1, 2000);
        const Trace t2 = g2->generate(r2, 2000);
        EXPECT_EQ(t1, t2) << cfg.name;
    }
}

TEST(WorkloadDeterminism, DifferentSeedsDiffer)
{
    const MacroConfig cfg = macroConfig("dbt2", 0.01);
    auto g1 = makeMacro(cfg);
    auto g2 = makeMacro(cfg);
    Rng r1(1), r2(2);
    EXPECT_NE(g1->generate(r1, 500), g2->generate(r2, 500));
}

TEST(WorkloadStructure, SequentialRunsBounded)
{
    // The geometric run-length sampler caps at 64 pages.
    MacroConfig cfg = macroConfig("SPECWeb99", 0.01);
    cfg.seqRunMean = 16.0;
    MacroWorkload gen(cfg);
    Rng rng(3);
    Lba prev = ~0ull;
    int run = 1, max_run = 1;
    for (int i = 0; i < 50000; ++i) {
        const TraceRecord r = gen.next(rng);
        if (!r.isWrite && r.lba == prev + 1)
            max_run = std::max(max_run, ++run);
        else
            run = 1;
        prev = r.lba;
    }
    EXPECT_GT(max_run, 8);
    EXPECT_LE(max_run, 80); // 64-page cap plus chance adjacency
}

TEST(WorkloadStructure, WriteRangeFractionRespected)
{
    MacroConfig cfg = macroConfig("dbt2", 0.01);
    cfg.writeOverlap = 0.0; // all writes to the dedicated range
    MacroWorkload gen(cfg);
    Rng rng(4);
    for (int i = 0; i < 20000; ++i) {
        const TraceRecord r = gen.next(rng);
        if (r.isWrite) {
            EXPECT_GE(r.lba, cfg.readPages);
            EXPECT_LT(r.lba, cfg.readPages + cfg.writeRangePages());
        } else if (gen.config().seqRunMean <= 1.0) {
            EXPECT_LT(r.lba, cfg.readPages);
        }
    }
}

TEST(DeviceEnergyContract, EnergyEqualsPowerTimesBusy)
{
    CellLifetimeModel m;
    FlashGeometry g;
    g.numBlocks = 4;
    g.framesPerBlock = 4;
    FlashDevice dev(g, FlashTiming(), m, 9);
    for (int i = 0; i < 8; ++i) {
        dev.programPage({0, static_cast<std::uint16_t>(i / 2),
                         static_cast<std::uint8_t>(i % 2)});
    }
    dev.eraseBlock(0);
    const auto& st = dev.stats();
    EXPECT_NEAR(st.activeEnergy,
                st.busyTime * FlashTiming().activePower, 1e-15);
}

} // namespace
} // namespace flashcache
