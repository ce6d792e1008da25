/**
 * @file
 * Flash based disk cache tests: hit/miss behaviour, out-of-place
 * writes, garbage collection, eviction with dirty flush, split vs
 * unified regions, wear-leveling migration, reconfiguration under
 * aging, the block slot count across density changes and erase
 * failures, and full invariant checks under randomized workloads.
 */

#include <gtest/gtest.h>

#include <vector>

#include "core/flash_cache.hh"
#include "fault/fault_injector.hh"
#include "util/rng.hh"

namespace flashcache {
namespace {

/** Records every backing-store access. */
class FakeStore : public BackingStore
{
  public:
    Seconds
    read(Lba lba) override
    {
        reads.push_back(lba);
        return milliseconds(4.2);
    }

    Seconds
    write(Lba lba) override
    {
        writes.push_back(lba);
        return milliseconds(4.2);
    }

    std::vector<Lba> reads;
    std::vector<Lba> writes;
};

FlashGeometry
geom(std::uint32_t blocks, std::uint16_t frames = 8)
{
    FlashGeometry g;
    g.numBlocks = blocks;
    g.framesPerBlock = frames;
    return g;
}

/** Bundles a full stack with convenient defaults. */
struct Stack
{
    explicit Stack(std::uint32_t blocks = 16,
                   const FlashCacheConfig& cfg = FlashCacheConfig(),
                   const WearParams& wp = WearParams(),
                   std::uint16_t frames = 8)
        : lifetime(wp),
          device(geom(blocks, frames), FlashTiming(), lifetime, 77),
          controller(device),
          cache(controller, store, cfg)
    {
    }

    CellLifetimeModel lifetime;
    FlashDevice device;
    FlashMemoryController controller;
    FakeStore store;
    FlashCache cache;
};

TEST(FlashCacheTest, ReadMissFillsThenHits)
{
    Stack s;
    const auto miss = s.cache.read(1234);
    EXPECT_FALSE(miss.hit);
    EXPECT_GE(miss.latency, milliseconds(4.2));
    ASSERT_EQ(s.store.reads.size(), 1u);
    EXPECT_EQ(s.store.reads[0], 1234u);

    const auto hit = s.cache.read(1234);
    EXPECT_TRUE(hit.hit);
    EXPECT_LT(hit.latency, milliseconds(1));
    EXPECT_EQ(s.store.reads.size(), 1u); // no second disk access
    s.cache.checkInvariants();
}

TEST(FlashCacheTest, WriteThenReadHitsWithoutDisk)
{
    Stack s;
    s.cache.write(55);
    const auto r = s.cache.read(55);
    EXPECT_TRUE(r.hit);
    EXPECT_TRUE(s.store.reads.empty());
    EXPECT_TRUE(s.store.writes.empty()); // still dirty in flash
    s.cache.checkInvariants();
}

TEST(FlashCacheTest, FlushWritesAllDirtyPages)
{
    Stack s;
    for (Lba l = 0; l < 10; ++l)
        s.cache.write(l);
    s.cache.flushAll();
    EXPECT_EQ(s.store.writes.size(), 10u);
    // A second flush writes nothing (pages now clean).
    s.cache.flushAll();
    EXPECT_EQ(s.store.writes.size(), 10u);
}

TEST(FlashCacheTest, OutOfPlaceUpdateInvalidatesOldPage)
{
    Stack s;
    s.cache.write(7);
    const std::uint64_t valid_before = s.cache.validPages();
    s.cache.write(7); // update
    EXPECT_EQ(s.cache.validPages(), valid_before);
    EXPECT_EQ(s.cache.invalidPages(), 1u);
    EXPECT_EQ(s.cache.stats().fgst.writes.hits(), 1u);
    s.cache.checkInvariants();
}

TEST(FlashCacheTest, WriteUpdateOfReadCachedPageMovesToWriteRegion)
{
    Stack s;
    s.cache.read(99);  // fill read region
    s.cache.write(99); // must invalidate read copy, go to write log
    const auto r = s.cache.read(99);
    EXPECT_TRUE(r.hit);
    EXPECT_EQ(s.cache.invalidPages(), 1u);
    s.cache.checkInvariants();
}

TEST(FlashCacheTest, WriteRegionGcReclaimsSpace)
{
    // Overwrite a small hot set many times: the write log fills with
    // invalid pages and GC must reclaim blocks instead of evicting.
    Stack s;
    for (int round = 0; round < 60; ++round)
        for (Lba l = 0; l < 8; ++l)
            s.cache.write(l);
    EXPECT_GT(s.cache.stats().gcRuns, 0u);
    EXPECT_GT(s.cache.stats().gcErases, 0u);
    EXPECT_GT(s.cache.stats().gcTime, 0.0);
    // The hot set stays resident through GC.
    for (Lba l = 0; l < 8; ++l)
        EXPECT_TRUE(s.cache.read(l).hit) << l;
    s.cache.checkInvariants();
}

TEST(FlashCacheTest, EvictionFlushesDirtyData)
{
    // Distinct LBAs exceeding write-region capacity force LRU block
    // evictions, which must flush dirty pages to disk.
    FlashCacheConfig cfg;
    cfg.wearLeveling = false;
    Stack s(16, cfg);
    // Write region = ~2 blocks x 8 frames x 2 = 32 MLC pages.
    for (Lba l = 0; l < 400; ++l)
        s.cache.write(l);
    EXPECT_GT(s.cache.stats().evictions +
              s.cache.stats().evictionFlushes, 0u);
    EXPECT_FALSE(s.store.writes.empty());
    s.cache.checkInvariants();
}

TEST(FlashCacheTest, ReadRegionLruEviction)
{
    FlashCacheConfig cfg;
    cfg.wearLeveling = false;
    Stack s(8, cfg);
    // Read capacity ~ 6 blocks x 16 pages = 96; stream many LBAs.
    for (Lba l = 0; l < 300; ++l)
        s.cache.read(l);
    EXPECT_GT(s.cache.stats().evictions, 0u);
    // Recently read pages hit, the oldest were evicted.
    EXPECT_TRUE(s.cache.read(299).hit);
    const auto old = s.cache.read(0);
    EXPECT_FALSE(old.hit);
    s.cache.checkInvariants();
}

TEST(FlashCacheTest, CleanEvictionsDoNotTouchDisk)
{
    FlashCacheConfig cfg;
    cfg.wearLeveling = false;
    Stack s(8, cfg);
    for (Lba l = 0; l < 300; ++l)
        s.cache.read(l);
    // Read-region evictions drop clean cache copies silently.
    EXPECT_TRUE(s.store.writes.empty());
}

TEST(FlashCacheTest, OccupancyAndCapacity)
{
    Stack s;
    EXPECT_EQ(s.cache.capacityPages(), 16u * 8 * 2);
    EXPECT_DOUBLE_EQ(s.cache.occupancy(), 0.0);
    for (Lba l = 0; l < 20; ++l)
        s.cache.read(l);
    EXPECT_EQ(s.cache.validPages(), 20u);
    EXPECT_NEAR(s.cache.occupancy(), 20.0 / 256.0, 1e-12);
}

TEST(FlashCacheTest, FgstTracksRatesAndLatencies)
{
    Stack s;
    s.cache.read(1);
    s.cache.read(1);
    s.cache.read(2);
    const Fgst& g = s.cache.stats().fgst;
    EXPECT_EQ(g.reads.hits(), 1u);
    EXPECT_EQ(g.reads.misses(), 2u);
    EXPECT_GT(g.avgMissPenalty(), milliseconds(4));
    EXPECT_GT(g.avgHitLatency(), 0.0);
    EXPECT_LT(g.avgHitLatency(), milliseconds(1));
}

TEST(FlashCacheTest, UnifiedModeWorks)
{
    FlashCacheConfig cfg;
    cfg.splitRegions = false;
    Stack s(8, cfg);
    Rng rng(5);
    for (int i = 0; i < 500; ++i) {
        const Lba l = rng.uniformInt(100);
        if (rng.bernoulli(0.3))
            s.cache.write(l);
        else
            s.cache.read(l);
    }
    s.cache.checkInvariants();
    EXPECT_GT(s.cache.stats().fgst.reads.hits(), 0u);
}

TEST(FlashCacheTest, SplitBeatsUnifiedOnDiskLevelWorkload)
{
    // Figure 4's mechanism: out-of-place writes pollute a unified
    // cache with invalid pages and GC churn; the split design
    // isolates the read region. The workload must be disk-level:
    // reads of recently written pages are absorbed by the DRAM
    // primary disk cache above, so at this layer the read stream
    // and the write-back stream touch mostly different pages.
    auto run = [](bool split) {
        FlashCacheConfig cfg;
        cfg.splitRegions = split;
        Stack s(16, cfg);
        Rng rng(9);
        ZipfSampler read_zipf(320, 0.9);
        ZipfSampler write_zipf(150, 0.9);
        for (int i = 0; i < 30000; ++i) {
            if (rng.bernoulli(0.3))
                s.cache.write(300 + write_zipf.sample(rng));
            else
                s.cache.read(read_zipf.sample(rng));
        }
        s.cache.checkInvariants();
        return s.cache.stats().fgst.reads.missRate();
    };
    const double unified = run(false);
    const double split = run(true);
    EXPECT_LT(split, unified);
}

TEST(FlashCacheTest, WearLevelingMigratesUnderSkew)
{
    FlashCacheConfig cfg;
    cfg.wearThreshold = 8.0;
    cfg.hotPageMigration = false;
    Stack s(8, cfg);
    // Hammer overwrites of a tiny set: write-region blocks wear fast
    // and eventually trigger the newest-block migration path.
    for (int round = 0; round < 3000; ++round)
        for (Lba l = 0; l < 4; ++l)
            s.cache.write(l);
    // Some reads keep a read-region block around as "newest".
    for (Lba l = 1000; l < 1020; ++l)
        s.cache.read(l);
    for (int round = 0; round < 3000; ++round)
        for (Lba l = 0; l < 4; ++l)
            s.cache.write(l);
    EXPECT_GT(s.cache.stats().wearMigrations, 0u);
    s.cache.checkInvariants();
}

TEST(FlashCacheTest, WearLevelingNarrowsEraseSpread)
{
    auto spread = [](bool wl) {
        FlashCacheConfig cfg;
        cfg.wearLeveling = wl;
        cfg.wearThreshold = 8.0;
        cfg.splitRegions = false;
        cfg.hotPageMigration = false;
        Stack s(8, cfg);
        for (Lba l = 200; l < 280; ++l)
            s.cache.read(l); // cold resident data
        for (int round = 0; round < 4000; ++round)
            for (Lba l = 0; l < 4; ++l)
                s.cache.write(l); // hot overwrites
        std::uint32_t max_e = 0;
        std::uint64_t total = 0;
        for (std::uint32_t b = 0; b < 8; ++b) {
            max_e = std::max(max_e, s.device.blockEraseCount(b));
            total += s.device.blockEraseCount(b);
        }
        return static_cast<double>(max_e) /
            (static_cast<double>(total) / 8.0);
    };
    // Max/mean erase ratio should be tighter with wear-leveling.
    EXPECT_LT(spread(true), spread(false));
}

TEST(FlashCacheTest, HotPageMigratesToSlc)
{
    FlashCacheConfig cfg;
    cfg.accessSaturation = 16;
    Stack s(16, cfg);
    s.cache.read(42);
    for (int i = 0; i < 40; ++i)
        s.cache.read(42);
    EXPECT_GT(s.cache.stats().hotMigrations, 0u);
    // The page still hits and now lives in an SLC page.
    EXPECT_TRUE(s.cache.read(42).hit);
    const std::uint64_t id = s.cache.fcht().find(42);
    ASSERT_NE(id, Fcht::npos);
    EXPECT_EQ(s.cache.fpstEntry(id).mode, DensityMode::SLC);
    s.cache.checkInvariants();
}

TEST(FlashCacheTest, AgedFlashTriggersReconfiguration)
{
    WearParams wp;
    wp.nominalCycles = 20;
    wp.sigmaDecades = 0.8;
    FlashCacheConfig cfg;
    cfg.accessSaturation = 255; // keep hot migration out of the way
    cfg.hotPageMigration = false;
    Stack s(8, cfg, wp);
    Rng rng(13);
    for (int i = 0; i < 40000 && !s.cache.failed(); ++i) {
        const Lba l = rng.uniformInt(64);
        if (rng.bernoulli(0.5))
            s.cache.write(l);
        else
            s.cache.read(l);
    }
    const auto& st = s.cache.stats();
    EXPECT_GT(st.eccReconfigs + st.densityReconfigs, 0u);
    s.cache.checkInvariants();
}

TEST(FlashCacheTest, SlotCountFollowsFrameModesThroughErases)
{
    // Aged flash turns single frames SLC (density reconfiguration),
    // hot pages fill all-SLC blocks, GC erases both kinds, and some
    // erases fail, which leaves the frame modes as they were. After
    // every access checkInvariants() recounts each live block's slots
    // from the device's frame modes.
    WearParams wp;
    wp.nominalCycles = 20;
    wp.sigmaDecades = 0.8;
    FlashCacheConfig cfg;
    cfg.accessSaturation = 16;
    Stack s(64, cfg, wp);
    FaultPlan plan;
    plan.eraseFailRate = 0.005;
    FaultInjector inj(plan);
    s.device.attachFaultInjector(&inj);

    const std::uint32_t blocks = s.device.geometry().numBlocks;
    const std::uint16_t frames = s.device.geometry().framesPerBlock;
    const auto slcFrames = [&](std::uint32_t b) {
        unsigned n = 0;
        for (std::uint16_t f = 0; f < frames; ++f)
            n += s.device.frameMode(b, f) == DensityMode::SLC;
        return n;
    };
    std::vector<unsigned> slcBefore(blocks);
    std::vector<std::uint32_t> erasesBefore(blocks);
    std::uint64_t slcBlockErases = 0;
    bool mixedBlockSeen = false;
    Rng rng(13);
    for (int i = 0; i < 20000 && !s.cache.failed(); ++i) {
        for (std::uint32_t b = 0; b < blocks; ++b) {
            slcBefore[b] = slcFrames(b);
            erasesBefore[b] = s.device.blockEraseCount(b);
        }
        // A hot set of 4 pages among 64.
        const Lba l = rng.bernoulli(0.3) ? rng.uniformInt(4)
                                         : rng.uniformInt(64);
        if (rng.bernoulli(0.5))
            s.cache.write(l);
        else
            s.cache.read(l);
        s.cache.checkInvariants();
        for (std::uint32_t b = 0; b < blocks; ++b) {
            const unsigned slc = slcFrames(b);
            mixedBlockSeen |= slc > 0 && slc < frames;
            if (slcBefore[b] > 0 &&
                s.device.blockEraseCount(b) > erasesBefore[b])
                ++slcBlockErases;
        }
    }
    const auto& st = s.cache.stats();
    EXPECT_GT(st.hotMigrations, 0u);
    EXPECT_GT(st.densityReconfigs, 0u);
    EXPECT_TRUE(mixedBlockSeen);
    EXPECT_GT(slcBlockErases, 0u);
    EXPECT_GT(inj.stats().eraseFails, 0u);
    EXPECT_GT(st.eraseFailRetirements, 0u);
}

TEST(FlashCacheTest, ExhaustedFlashFailsGracefully)
{
    WearParams wp;
    wp.nominalCycles = 5;
    wp.sigmaDecades = 0.4;
    FlashCacheConfig cfg;
    cfg.maxEccStrength = 2; // few knobs: dies fast
    Stack s(6, cfg, wp, 4);
    Rng rng(17);
    int i = 0;
    for (; i < 2000000 && !s.cache.failed(); ++i) {
        const Lba l = rng.uniformInt(32);
        if (rng.bernoulli(0.7))
            s.cache.write(l);
        else
            s.cache.read(l);
    }
    EXPECT_TRUE(s.cache.failed()) << "survived " << i << " accesses";
    EXPECT_GT(s.cache.stats().retiredBlocks, 0u);
}

TEST(FlashCacheTest, AdaptiveControllerOutlivesFixedBch1)
{
    // Figure 12 in miniature: accesses to failure, programmable
    // controller vs fixed single-error correction.
    auto lifetime = [](bool adaptive) {
        WearParams wp;
        wp.nominalCycles = 10;
        wp.sigmaDecades = 0.6;
        FlashCacheConfig cfg;
        cfg.adaptiveReconfig = adaptive;
        cfg.hotPageMigration = false;
        cfg.initialEccStrength = 1;
        if (!adaptive)
            cfg.maxEccStrength = 1;
        Stack s(8, cfg, wp, 4);
        Rng rng(21);
        std::uint64_t n = 0;
        while (n < 5000000 && !s.cache.failed()) {
            const Lba l = rng.uniformInt(24);
            if (rng.bernoulli(0.7))
                s.cache.write(l);
            else
                s.cache.read(l);
            ++n;
        }
        return n;
    };
    const auto fixed = lifetime(false);
    const auto adaptive = lifetime(true);
    EXPECT_GT(adaptive, 2 * fixed);
}

TEST(FlashCacheTest, RandomizedInvariantSweep)
{
    for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
        FlashCacheConfig cfg;
        cfg.accessSaturation = 32;
        cfg.wearThreshold = 16.0;
        Stack s(12, cfg);
        Rng rng(seed);
        for (int i = 0; i < 4000; ++i) {
            const Lba l = rng.uniformInt(300);
            if (rng.bernoulli(0.4))
                s.cache.write(l);
            else
                s.cache.read(l);
            if (i % 500 == 499)
                s.cache.checkInvariants();
        }
        s.cache.flushAll();
        s.cache.checkInvariants();
    }
}

TEST(FlashCacheTest, GcOverheadGrowsWithOccupancy)
{
    // Figure 1(b)'s mechanism at unit scale: higher live occupancy
    // of the log leaves fewer invalid pages per GC'd block, raising
    // the time share of garbage collection. As a storage log
    // (gcMinInvalidFraction = 0, section 2.2's SSD) the cache never
    // evicts and GC relocates every valid page of its victim, so the
    // overhead more than doubles.
    auto overhead = [](Lba working_set, double gc_min_invalid) {
        FlashCacheConfig cfg;
        cfg.splitRegions = false;
        cfg.wearLeveling = false;
        cfg.hotPageMigration = false;
        cfg.gcMinInvalidFraction = gc_min_invalid;
        Stack s(16, cfg);
        Rng rng(31);
        for (int i = 0; i < 20000; ++i)
            s.cache.write(rng.uniformInt(working_set));
        if (gc_min_invalid == 0.0) {
            EXPECT_EQ(s.cache.stats().evictions, 0u);
        }
        return s.cache.gcOverheadFraction();
    };
    // Capacity is 256 pages; compare 35% vs 85% live occupancy.
    const double cache = FlashCacheConfig().gcMinInvalidFraction;
    EXPECT_GT(overhead(218, cache), overhead(90, cache));
    EXPECT_GT(overhead(218, 0.0), 2.0 * overhead(90, 0.0));
}

} // namespace
} // namespace flashcache
