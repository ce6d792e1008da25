/**
 * @file
 * Cross-validation between independent implementations: the flash
 * cache's measured miss rate is bracketed using the stack-distance
 * analyzer's ideal page-LRU curve, and the cache's device-level
 * program/erase accounting balances under GC-heavy write traffic.
 */

#include <gtest/gtest.h>

#include "core/flash_cache.hh"
#include "util/rng.hh"
#include "workload/stack_distance.hh"
#include "workload/synthetic.hh"

namespace flashcache {
namespace {

TEST(CrossValidationTest, CacheMissRateBracketsIdealLru)
{
    // Read-only zipf stream. The flash cache evicts at *block*
    // granularity, so it cannot beat an ideal page-LRU of the same
    // capacity, but it should stay within a reasonable factor of an
    // ideal LRU at ~60% of its capacity.
    WearParams no_wear;
    no_wear.nominalCycles = 1e9;
    CellLifetimeModel lifetime(no_wear);
    FlashGeometry g;
    g.numBlocks = 16;
    g.framesPerBlock = 8; // 256 pages
    FlashDevice device(g, FlashTiming(), lifetime, 2);
    FlashMemoryController ctrl(device);
    FixedLatencyStore store;
    FlashCacheConfig cfg;
    cfg.splitRegions = false; // whole capacity for reads
    cfg.hotPageMigration = false;
    FlashCache cache(ctrl, store, cfg);

    Rng rng(5);
    ZipfSampler zipf(1200, 1.0);
    StackDistance sd;
    for (int i = 0; i < 60000; ++i) {
        const Lba l = zipf.sample(rng);
        cache.read(l);
        sd.access(l);
    }

    const double measured = cache.stats().fgst.reads.missRate();
    const double ideal_full = sd.missRateAtSize(cache.capacityPages());
    const double ideal_partial = sd.missRateAtSize(
        cache.capacityPages() * 6 / 10);
    EXPECT_GE(measured, ideal_full - 0.01)
        << "cache cannot beat ideal LRU of equal capacity";
    EXPECT_LE(measured, ideal_partial + 0.05)
        << "block-granularity overhead larger than expected";
}

TEST(CrossValidationTest, SequentialScanBothAgree)
{
    // A repeated scan larger than the cache defeats LRU completely:
    // both the analyzer and the cache must report ~100% misses.
    WearParams no_wear;
    no_wear.nominalCycles = 1e9;
    CellLifetimeModel lifetime(no_wear);
    FlashGeometry g;
    g.numBlocks = 8;
    g.framesPerBlock = 8; // 128 pages
    FlashDevice device(g, FlashTiming(), lifetime, 3);
    FlashMemoryController ctrl(device);
    FixedLatencyStore store;
    FlashCacheConfig cfg;
    cfg.splitRegions = false;
    FlashCache cache(ctrl, store, cfg);

    StackDistance sd;
    for (int rep = 0; rep < 40; ++rep) {
        for (Lba l = 0; l < 200; ++l) { // 200 > 128-page capacity
            cache.read(l);
            sd.access(l);
        }
    }
    EXPECT_GT(sd.missRateAtSize(128), 0.99);
    EXPECT_GT(cache.stats().fgst.reads.missRate(), 0.95);
}

TEST(CrossValidationTest, CacheDeviceAccountingBalances)
{
    // Overwrite traffic through a unified cache: every write costs at
    // least one program, and GC never destroys the program/erase
    // balance (programs >= writes; every erase frees what programs
    // consumed).
    WearParams no_wear;
    no_wear.nominalCycles = 1e9;
    CellLifetimeModel lifetime(no_wear);
    FlashGeometry g;
    g.numBlocks = 16;
    g.framesPerBlock = 8;

    Rng rng(9);
    std::vector<Lba> writes;
    for (int i = 0; i < 8000; ++i)
        writes.push_back(rng.uniformInt(180));

    FlashDevice dev(g, FlashTiming(), lifetime, 4);
    FlashMemoryController ctrl(dev);
    FixedLatencyStore store;
    FlashCacheConfig cfg;
    cfg.splitRegions = false;
    cfg.hotPageMigration = false;
    FlashCache cache(ctrl, store, cfg);
    for (const Lba l : writes)
        cache.write(l);
    cache.checkInvariants();

    EXPECT_GE(dev.stats().programs, writes.size());
    // Programs never exceed what erases plus virgin capacity provide.
    const std::uint64_t capacity =
        static_cast<std::uint64_t>(g.numBlocks) * g.framesPerBlock * 2;
    EXPECT_LE(dev.stats().programs,
              capacity * (dev.stats().erases / g.numBlocks + 2));
}

} // namespace
} // namespace flashcache
