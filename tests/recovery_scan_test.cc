/**
 * @file
 * The recovery scan's verdicts, one case at a time: which copy of a
 * twice-written LBA wins whatever its physical position, a flash copy
 * the disk has since superseded (stale), and a newest copy that no
 * longer decodes (uncorrectable). Each case builds a small real-data
 * medium through the cache, drops the DRAM tables as a power cut
 * would, runs FlashCache::recover() and checks every recovery.*
 * counter plus what the rebuilt cache serves.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "controller/memory_controller.hh"
#include "core/flash_cache.hh"
#include "fault/fault_injector.hh"
#include "support/memory_disk.hh"

namespace flashcache {
namespace {

/** Device, controller and disk survive the cut; the cache is DRAM. */
struct ScanStack
{
    ScanStack()
    {
        WearParams no_wear;
        no_wear.nominalCycles = 1e9;
        lifetime = std::make_unique<CellLifetimeModel>(no_wear);
        FlashGeometry g;
        g.numBlocks = 16;
        g.framesPerBlock = 4;
        device = std::make_unique<FlashDevice>(g, FlashTiming(),
                                               *lifetime, 2024, 0.0,
                                               /*store_data=*/true);
        controller = std::make_unique<FlashMemoryController>(*device);
        cache = std::make_unique<FlashCache>(*controller, disk, cfg());
    }

    /** Half the blocks per region, so the write region holds several
     *  blocks and nothing is evicted while a case builds its medium. */
    static FlashCacheConfig
    cfg()
    {
        FlashCacheConfig c;
        c.realData = true;
        c.readRegionFraction = 0.5;
        return c;
    }

    void
    write(Lba lba, std::uint32_t version)
    {
        cache->writeData(lba, pageContent(lba, version).data());
    }

    /** Flash page the cache maps `lba` to (npos when unmapped). */
    std::uint64_t
    pageOf(Lba lba) const
    {
        return cache->fcht().find(lba);
    }

    /** Power cut and reboot: a new cache rebuilt from the medium. */
    void
    recover()
    {
        cache = std::make_unique<FlashCache>(*controller, disk, cfg());
        cache->recover();
        cache->checkInvariants();
    }

    /** Read `lba` through the cache; true when it hit flash and
     *  served `version`'s bytes. */
    bool
    hitServes(Lba lba, std::uint32_t version)
    {
        std::vector<std::uint8_t> out(kTestPageBytes);
        const bool hit = cache->readData(lba, out.data()).hit;
        EXPECT_EQ(out, pageContent(lba, version)) << "lba " << lba;
        return hit;
    }

    const FlashCacheStats::RecoveryStats&
    rec() const
    {
        return cache->stats().recovery;
    }

    std::unique_ptr<CellLifetimeModel> lifetime;
    std::unique_ptr<FlashDevice> device;
    std::unique_ptr<FlashMemoryController> controller;
    MemoryDisk disk;
    std::unique_ptr<FlashCache> cache;
};

/** The counters every case below checks as a whole. */
void
expectScan(const FlashCacheStats::RecoveryStats& r, std::uint64_t scanned,
           std::uint64_t duplicate, std::uint64_t stale,
           std::uint64_t uncorrectable, std::uint64_t recovered,
           std::uint64_t recovered_dirty)
{
    EXPECT_EQ(r.scannedPages, scanned);
    EXPECT_EQ(r.tornPages, 0u);
    EXPECT_EQ(r.duplicatePages, duplicate);
    EXPECT_EQ(r.stalePages, stale);
    EXPECT_EQ(r.uncorrectablePages, uncorrectable);
    EXPECT_EQ(r.recoveredPages, recovered);
    EXPECT_EQ(r.recoveredDirty, recovered_dirty);
}

TEST(RecoveryScanTest, NewerCopyAfterItsOlderCopyWins)
{
    ScanStack s;
    s.write(5, 1);
    const std::uint64_t older = s.pageOf(5);
    s.write(5, 2);
    const std::uint64_t newer = s.pageOf(5);
    ASSERT_GT(newer, older) << "the newer copy must sit after the older";

    s.recover();
    expectScan(s.rec(), 2, 1, 0, 0, 1, 1);
    EXPECT_EQ(s.pageOf(5), newer);
    EXPECT_EQ(s.cache->validPages(), 1u);
    EXPECT_EQ(s.cache->invalidPages(), 1u);
    EXPECT_TRUE(s.hitServes(5, 2));
}

TEST(RecoveryScanTest, NewerCopyBeforeItsOlderCopyWins)
{
    // The write region takes its free blocks from the top down, so
    // once the first block is full the next copy of LBA 5 lands in a
    // lower-numbered block than the first.
    ScanStack s;
    s.write(5, 1);
    const std::uint64_t older = s.pageOf(5);
    const std::uint64_t pages_per_block = 2 * 4;
    for (Lba l = 100; l < 100 + pages_per_block; ++l)
        s.write(l, 1);
    s.write(5, 2);
    const std::uint64_t newer = s.pageOf(5);
    ASSERT_LT(newer, older) << "the newer copy must sit before the older";

    s.recover();
    expectScan(s.rec(), 2 + pages_per_block, 1, 0, 0,
               1 + pages_per_block, 1 + pages_per_block);
    EXPECT_EQ(s.pageOf(5), newer);
    EXPECT_TRUE(s.hitServes(5, 2));
    for (Lba l = 100; l < 100 + pages_per_block; ++l)
        EXPECT_TRUE(s.hitServes(l, 1)) << "lba " << l;
}

TEST(RecoveryScanTest, CopyTheDiskSupersededIsStale)
{
    // Both pages are flushed, so the disk's generation tags beat
    // their flash sequence numbers; LBA 6 is then written again, and
    // its newest flash copy beats the tag.
    ScanStack s;
    s.write(5, 1);
    s.write(6, 1);
    s.cache->flushAll();
    s.write(6, 2);
    ASSERT_GT(s.disk.generation(5), 0u);

    s.recover();
    expectScan(s.rec(), 3, 1, 1, 0, 1, 1);
    EXPECT_EQ(s.pageOf(5), Fcht::npos);
    EXPECT_NE(s.pageOf(6), Fcht::npos);
    EXPECT_EQ(s.cache->validPages(), 1u);
    EXPECT_EQ(s.cache->invalidPages(), 2u);
    EXPECT_FALSE(s.hitServes(5, 1)) << "a stale LBA is served from disk";
    EXPECT_TRUE(s.hitServes(6, 2));
}

TEST(RecoveryScanTest, UncorrectableNewestCopyFallsBackToDisk)
{
    // Read disturbances far past the code strength on every read, but
    // only while recover() runs: the newest copy of LBA 5 fails ECC
    // validation, and the older copy must not take its place.
    ScanStack s;
    s.write(5, 1);
    s.write(5, 2);

    FaultPlan plan;
    plan.seed = 11;
    plan.readFaultRate = 1.0;
    plan.readFaultBits = 64;
    FaultInjector inj(plan);
    s.device->attachFaultInjector(&inj);
    s.recover();
    s.device->attachFaultInjector(nullptr);
    EXPECT_GT(inj.stats().readFaults, 0u);

    expectScan(s.rec(), 2, 1, 0, 1, 0, 0);
    EXPECT_EQ(s.cache->stats().uncorrectableReads, 1u);
    EXPECT_EQ(s.pageOf(5), Fcht::npos);
    EXPECT_EQ(s.cache->validPages(), 0u);
    EXPECT_FALSE(s.hitServes(5, 0)) << "the disk's copy, never flushed";
}

} // namespace
} // namespace flashcache
