/**
 * @file
 * Behavioural tests for the runtime statistics and reconfiguration
 * mechanics added by section 5.2: FGST recency-weighted estimators,
 * access-count carry-over across out-of-place updates, GC victim
 * thresholds, the free-block reserve, and the policy decision
 * counters that back Figure 11.
 */

#include <gtest/gtest.h>

#include "core/flash_cache.hh"
#include "core/tables.hh"
#include "util/rng.hh"
#include "workload/synthetic.hh"

namespace flashcache {
namespace {

FlashGeometry
geom(std::uint32_t blocks, std::uint16_t frames = 8)
{
    FlashGeometry g;
    g.numBlocks = blocks;
    g.framesPerBlock = frames;
    return g;
}

struct Stack
{
    explicit Stack(std::uint32_t blocks = 16,
                   const FlashCacheConfig& cfg = FlashCacheConfig(),
                   const WearParams& wp = WearParams(),
                   std::uint16_t frames = 8)
        : lifetime(wp),
          device(geom(blocks, frames), FlashTiming(), lifetime, 123),
          controller(device),
          cache(controller, store, cfg)
    {
    }

    CellLifetimeModel lifetime;
    FlashDevice device;
    FlashMemoryController controller;
    FixedLatencyStore store;
    FlashCache cache;
};

TEST(FgstEwmaTest, RecentMissRateTracksRegimeChanges)
{
    Fgst g;
    // A long miss-heavy warmup...
    for (int i = 0; i < 20000; ++i)
        g.recordRead(false);
    EXPECT_GT(g.recentMissRate(), 0.9);
    // ...followed by a long all-hit phase: the cumulative rate stays
    // poisoned but the EWMA converges to the new regime.
    for (int i = 0; i < 40000; ++i)
        g.recordRead(true);
    EXPECT_GT(g.missRate(), 0.3);
    EXPECT_LT(g.recentMissRate(), 0.01);
}

TEST(FgstEwmaTest, MarginalHitFractionSeparatesTailShapes)
{
    Fgst hot, cold;
    // Short tail: hits land on pages that already have high counts.
    for (int i = 0; i < 20000; ++i)
        hot.recordHitPageCount(200);
    // Long tail: hits land on pages with counts 0/1.
    for (int i = 0; i < 20000; ++i)
        cold.recordHitPageCount(i % 2);
    EXPECT_LT(hot.marginalHitFraction(), 0.01);
    EXPECT_GT(cold.marginalHitFraction(), 0.99);
}

TEST(ReconfigBehaviorTest, AccessCountCarriesAcrossUpdates)
{
    Stack s;
    s.cache.write(42);
    for (int i = 0; i < 5; ++i)
        s.cache.read(42);
    s.cache.write(42); // out-of-place update
    const std::uint64_t id = s.cache.fcht().find(42);
    ASSERT_NE(id, Fcht::npos);
    // 1 (install) + 5 reads + 1 (update) = 7.
    EXPECT_EQ(s.cache.fpstEntry(id).accessCount, 7);
}

TEST(ReconfigBehaviorTest, FreshWriteStartsCold)
{
    Stack s;
    s.cache.write(77);
    const std::uint64_t id = s.cache.fcht().find(77);
    ASSERT_NE(id, Fcht::npos);
    EXPECT_EQ(s.cache.fpstEntry(id).accessCount, 1);
}

TEST(ReconfigBehaviorTest, PolicyCountersSubsetOfReconfigCounters)
{
    WearParams wp;
    wp.nominalCycles = 30;
    wp.sigmaDecades = 0.8;
    FlashCacheConfig cfg;
    cfg.hotPageMigration = false;
    Stack s(8, cfg, wp);
    Rng rng(4);
    for (int i = 0; i < 60000 && !s.cache.failed(); ++i) {
        const Lba l = rng.uniformInt(96);
        if (rng.bernoulli(0.5))
            s.cache.write(l);
        else
            s.cache.read(l);
    }
    const auto& st = s.cache.stats();
    // Every policy choice is also counted in the descriptor-update
    // totals, which additionally include forced responses.
    EXPECT_LE(st.policyEccChoices, st.eccReconfigs);
    EXPECT_LE(st.policyDensityChoices, st.densityReconfigs);
    EXPECT_GT(st.policyEccChoices + st.policyDensityChoices, 0u);
    // The diagnostics sample one row per policy evaluation (ECC,
    // density and retire decisions alike).
    EXPECT_GE(st.faultPageFreq.count(),
              st.policyEccChoices + st.policyDensityChoices);
    EXPECT_EQ(st.faultEccCost.count(), st.faultPageFreq.count());
    EXPECT_EQ(st.faultDensityCost.count(), st.faultPageFreq.count());
}

TEST(GcPolicyTest, ThresholdZeroNeverEvictsUnderOverwrites)
{
    // Storage-log mode (Figure 1(b)): GC always relocates, eviction
    // should never fire while invalid pages exist.
    FlashCacheConfig cfg;
    cfg.splitRegions = false;
    cfg.wearLeveling = false;
    cfg.hotPageMigration = false;
    cfg.adaptiveReconfig = false;
    cfg.gcMinInvalidFraction = 0.0;
    WearParams no_wear;
    no_wear.nominalCycles = 1e9; // isolate GC behaviour from wear
    Stack s(16, cfg, no_wear); // 16 x 8 x 2 = 256 MLC pages
    Rng rng(6);
    const Lba live = 180; // ~70% of 256 pages
    for (int i = 0; i < 20000; ++i)
        s.cache.write(rng.uniformInt(live));
    EXPECT_EQ(s.cache.stats().evictions, 0u);
    EXPECT_GT(s.cache.stats().gcRuns, 0u);
    // Live data is preserved through all that GC.
    EXPECT_EQ(s.cache.validPages(), live);
    s.cache.checkInvariants();
}

TEST(GcPolicyTest, HighThresholdPrefersEvictionForColdValidBlocks)
{
    // Cache mode with a high GC bar: distinct one-shot writes leave
    // blocks full of valid-but-cold pages; reclaiming them must go
    // through eviction (flush) rather than endless copying.
    FlashCacheConfig cfg;
    cfg.splitRegions = false;
    cfg.wearLeveling = false;
    cfg.hotPageMigration = false;
    cfg.gcMinInvalidFraction = 0.9;
    Stack s(8, cfg);
    for (Lba l = 0; l < 2000; ++l)
        s.cache.write(l); // never overwritten: no invalid pages
    EXPECT_GT(s.cache.stats().evictions, 0u);
    EXPECT_EQ(s.cache.stats().gcPageCopies, 0u);
    s.cache.checkInvariants();
}

TEST(GcPolicyTest, ReserveKeepsGcRelocationFed)
{
    // At moderate occupancy the reserve guarantees GC can relocate:
    // no page should be dropped to disk by a starved GC.
    FlashCacheConfig cfg;
    cfg.splitRegions = false;
    cfg.wearLeveling = false;
    cfg.hotPageMigration = false;
    cfg.gcMinInvalidFraction = 0.0;
    WearParams no_wear;
    no_wear.nominalCycles = 1e9;
    Stack s(16, cfg, no_wear); // 256 MLC pages
    Rng rng(8);
    const Lba live = 160; // ~62% occupancy
    for (int i = 0; i < 30000; ++i)
        s.cache.write(rng.uniformInt(live));
    // GC ran a lot, and dirty data only reaches the store via
    // flushAll (no starvation fallbacks).
    EXPECT_GT(s.cache.stats().gcRuns, 50u);
    EXPECT_EQ(s.cache.stats().evictionFlushes, 0u);
    s.cache.checkInvariants();
}

TEST(HotMigrationTest, CreatesSlcFramesOnDemand)
{
    FlashCacheConfig cfg;
    cfg.accessSaturation = 8;
    Stack s(16, cfg);
    // Touch several pages hot enough to saturate their counters.
    for (Lba l = 0; l < 6; ++l)
        s.cache.read(l);
    for (int round = 0; round < 20; ++round)
        for (Lba l = 0; l < 6; ++l)
            s.cache.read(l);
    EXPECT_GE(s.cache.stats().hotMigrations, 6u);
    // The migrated pages now answer with SLC read latency.
    const std::uint64_t id = s.cache.fcht().find(3);
    ASSERT_NE(id, Fcht::npos);
    EXPECT_EQ(s.cache.fpstEntry(id).mode, DensityMode::SLC);
    const auto hit = s.cache.read(3);
    EXPECT_TRUE(hit.hit);
    EXPECT_LT(hit.latency,
              FlashTiming().mlcReadLatency +
                  s.controller.decodeLatency(1) + 1e-9);
    s.cache.checkInvariants();
}

TEST(HotMigrationTest, DisabledMeansNoSlcFrames)
{
    FlashCacheConfig cfg;
    cfg.accessSaturation = 8;
    cfg.hotPageMigration = false;
    Stack s(16, cfg);
    for (int round = 0; round < 30; ++round)
        for (Lba l = 0; l < 6; ++l)
            s.cache.read(l);
    EXPECT_EQ(s.cache.stats().hotMigrations, 0u);
}

TEST(HotMigrationTest, ReformatErasesChargeTheMigrationAccount)
{
    // Hot migrations re-erase free MLC blocks to SLC. Those erases are
    // migration work: they belong in reconfigTime, not in gcTime.
    FlashCacheConfig cfg;
    cfg.accessSaturation = 4;
    Stack s(32, cfg);
    Rng rng(5);
    for (int i = 0; i < 2000; ++i)
        s.cache.read(rng.uniformInt(40));
    const FlashCacheStats& st = s.cache.stats();
    ASSERT_GT(st.hotMigrations, 0u);
    ASSERT_EQ(st.gcRuns, 0u);
    ASSERT_EQ(st.evictions, 0u);
    EXPECT_EQ(st.gcTime, 0.0);
    // With no GC and no eviction every erase was a reformat erase,
    // each at least an SLC erase long; every migration copy reads and
    // programs one page, each at least as long as in SLC mode.
    const FlashTiming t;
    const std::uint64_t erases = s.device.stats().erases;
    ASSERT_GT(erases, 0u);
    EXPECT_GE(st.reconfigTime,
              static_cast<double>(st.hotMigrations) *
                      (t.slcReadLatency + t.slcWriteLatency) +
                  static_cast<double>(erases) * t.slcEraseLatency);
    s.cache.checkInvariants();
}

TEST(RetirementTest, RetiredBlocksNeverComeBack)
{
    WearParams wp;
    wp.nominalCycles = 8;
    wp.sigmaDecades = 0.5;
    FlashCacheConfig cfg;
    cfg.maxEccStrength = 2;
    Stack s(6, cfg, wp, 4);
    Rng rng(10);
    for (int i = 0; i < 500000 && !s.cache.failed(); ++i) {
        const Lba l = rng.uniformInt(24);
        if (rng.bernoulli(0.7))
            s.cache.write(l);
        else
            s.cache.read(l);
    }
    const auto retired = s.cache.stats().retiredBlocks;
    EXPECT_GT(retired, 0u);
    EXPECT_EQ(s.cache.liveBlocks(), 6u - retired);
    s.cache.checkInvariants();
}

} // namespace
} // namespace flashcache
