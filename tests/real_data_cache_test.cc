/**
 * @file
 * Real-data mode tests: page payloads flow through the entire stack
 * (cache -> controller -> real BCH/CRC codec -> device) with
 * physically injected bit errors. The headline property: every byte
 * read through the cache equals the last byte written for that LBA,
 * across GC relocations, evictions, hot migrations, reconfiguration
 * and flushes.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <vector>

#include "core/flash_cache.hh"
#include "support/memory_disk.hh"
#include "util/rng.hh"

namespace flashcache {
namespace {

constexpr std::uint32_t kPage = kTestPageBytes;

struct RealStack
{
    explicit RealStack(std::uint32_t blocks, const WearParams& wp,
                       FlashCacheConfig cfg = FlashCacheConfig(),
                       double soft_rate = 0.0)
        : lifetime(wp)
    {
        FlashGeometry g;
        g.numBlocks = blocks;
        g.framesPerBlock = 4;
        device = std::make_unique<FlashDevice>(g, FlashTiming(),
                                               lifetime, 2024, 0.0,
                                               /*store_data=*/true);
        device->setSoftErrorRate(soft_rate);
        controller = std::make_unique<FlashMemoryController>(*device);
        cfg.realData = true;
        cache = std::make_unique<FlashCache>(*controller, disk, cfg);
    }

    CellLifetimeModel lifetime;
    std::unique_ptr<FlashDevice> device;
    std::unique_ptr<FlashMemoryController> controller;
    MemoryDisk disk;
    std::unique_ptr<FlashCache> cache;
};

TEST(RealDataCacheTest, ReadBackAfterWrite)
{
    WearParams no_wear;
    no_wear.nominalCycles = 1e9;
    RealStack s(8, no_wear);

    const auto content = pageContent(5, 1);
    s.cache->writeData(5, content.data());
    std::vector<std::uint8_t> out(kPage);
    const auto r = s.cache->readData(5, out.data());
    EXPECT_TRUE(r.hit);
    EXPECT_EQ(out, content);
}

TEST(RealDataCacheTest, MissFetchesFromDisk)
{
    WearParams no_wear;
    no_wear.nominalCycles = 1e9;
    RealStack s(8, no_wear);

    const auto content = pageContent(9, 3);
    s.disk.pages_[9].assign(content.begin(), content.end());

    std::vector<std::uint8_t> out(kPage);
    const auto miss = s.cache->readData(9, out.data());
    EXPECT_FALSE(miss.hit);
    EXPECT_EQ(out, content);
    // Second read is a flash hit with the same bytes.
    std::fill(out.begin(), out.end(), 0);
    const auto hit = s.cache->readData(9, out.data());
    EXPECT_TRUE(hit.hit);
    EXPECT_EQ(out, content);
}

TEST(RealDataCacheTest, FlushPersistsPayloads)
{
    WearParams no_wear;
    no_wear.nominalCycles = 1e9;
    RealStack s(8, no_wear);

    const auto a = pageContent(1, 1);
    const auto b = pageContent(2, 1);
    s.cache->writeData(1, a.data());
    s.cache->writeData(2, b.data());
    s.cache->flushAll();
    ASSERT_TRUE(s.disk.pages_.count(1));
    ASSERT_TRUE(s.disk.pages_.count(2));
    EXPECT_EQ(s.disk.pages_[1], a);
    EXPECT_EQ(s.disk.pages_[2], b);
}

TEST(RealDataCacheTest, IntegrityAcrossGcEvictionAndMigration)
{
    // The big one: a randomized workload small enough to churn
    // through GC, evictions and hot migrations; after every read the
    // returned bytes must match the newest version of that page.
    WearParams mild;
    mild.nominalCycles = 1e6;
    FlashCacheConfig cfg;
    cfg.accessSaturation = 12; // exercise hot migration too
    RealStack s(8, mild, cfg);

    Rng rng(7);
    std::map<Lba, std::uint32_t> version;
    std::vector<std::uint8_t> out(kPage);
    for (int i = 0; i < 2500; ++i) {
        const Lba lba = rng.uniformInt(80);
        if (rng.bernoulli(0.5)) {
            const std::uint32_t v = ++version[lba];
            s.cache->writeData(lba, pageContent(lba, v).data());
        } else {
            const auto r = s.cache->readData(lba, out.data());
            (void)r;
            const std::uint32_t v = version.count(lba) ? version[lba]
                                                       : 0;
            ASSERT_EQ(out, pageContent(lba, v))
                << "lba " << lba << " iteration " << i;
        }
    }
    EXPECT_GT(s.cache->stats().gcRuns + s.cache->stats().evictions, 0u);
    EXPECT_EQ(s.cache->stats().dataLossPages, 0u);
    s.cache->checkInvariants();

    // Shutdown: everything written must be on disk, bit exact.
    s.cache->flushAll();
    for (const auto& [lba, v] : version)
        EXPECT_EQ(s.disk.pages_[lba], pageContent(lba, v)) << lba;
}

TEST(RealDataCacheTest, IntegrityUnderSoftErrors)
{
    // Transient bit flips on every read; the BCH+CRC pipeline and
    // the retry path must keep payloads bit-exact.
    WearParams no_wear;
    no_wear.nominalCycles = 1e9;
    FlashCacheConfig cfg;
    cfg.initialEccStrength = 6;
    cfg.hotPageMigration = false;
    RealStack s(8, no_wear, cfg, /*soft_rate=*/3e-5);

    Rng rng(11);
    std::map<Lba, std::uint32_t> version;
    std::vector<std::uint8_t> out(kPage);
    unsigned corrected_before = 0;
    for (int i = 0; i < 800; ++i) {
        const Lba lba = rng.uniformInt(40);
        if (rng.bernoulli(0.4)) {
            const std::uint32_t v = ++version[lba];
            s.cache->writeData(lba, pageContent(lba, v).data());
        } else {
            s.cache->readData(lba, out.data());
            const std::uint32_t v = version.count(lba) ? version[lba]
                                                       : 0;
            ASSERT_EQ(out, pageContent(lba, v)) << lba;
        }
    }
    corrected_before = static_cast<unsigned>(
        s.controller->stats().correctedReads);
    EXPECT_GT(corrected_before, 50u) << "soft errors never exercised ECC";
}

/** Payload disk whose latency is a function of the LBA alone, so a
 *  metadata-only cache and a real-data cache see the same disk time
 *  for the same access stream. */
class LbaTimedDisk : public MemoryDisk
{
  public:
    static Seconds latency(Lba lba) { return milliseconds(2.0 + lba % 7); }

    Seconds read(Lba lba) override { return latency(lba); }
    Seconds write(Lba lba) override { return latency(lba); }

    Seconds
    readData(Lba lba, std::uint8_t* out) override
    {
        MemoryDisk::readData(lba, out);
        return latency(lba);
    }

    Seconds
    writeData(Lba lba, const std::uint8_t* data) override
    {
        MemoryDisk::writeData(lba, data);
        return latency(lba);
    }
};

/** One cache over a fresh 32x8-block device, in either mode. */
struct AgreementStack
{
    AgreementStack(bool real_data, const FlashCacheConfig& base)
        : lifetime(unworn())
    {
        FlashGeometry g;
        g.numBlocks = 32;
        g.framesPerBlock = 8;
        device = std::make_unique<FlashDevice>(g, FlashTiming(),
                                               lifetime, 2024, 0.0,
                                               real_data);
        device->setSoftErrorRate(3e-6);
        controller = std::make_unique<FlashMemoryController>(*device);
        FlashCacheConfig cfg = base;
        cfg.realData = real_data;
        cache = std::make_unique<FlashCache>(*controller, disk, cfg);
    }

    /** No cell dies within the run: at 1e9 nominal cycles and a
     *  one-decade lifetime spread, hard errors stay at zero, so
     *  every bit error is a transient soft flip. */
    static WearParams
    unworn()
    {
        WearParams wp;
        wp.nominalCycles = 1e9;
        wp.sigmaDecades = 1.0;
        return wp;
    }

    CellLifetimeModel lifetime;
    std::unique_ptr<FlashDevice> device;
    std::unique_ptr<FlashMemoryController> controller;
    LbaTimedDisk disk;
    std::unique_ptr<FlashCache> cache;
};

TEST(RealDataCacheTest, ModelAndRealDataAgreeOnUnwornFlash)
{
    // On flash that never wears out, moving real payloads through the
    // BCH + CRC pipeline must not change a single modeled number: the
    // two modes share every device op, RNG draw and table update.
    FlashCacheConfig cfg;
    cfg.accessSaturation = 8; // hot MLC->SLC migration
    cfg.wearThreshold = 16.0; // section 3.6 wear swaps
    AgreementStack model(false, cfg);
    AgreementStack real(true, cfg);

    Rng rng(42);
    std::vector<std::uint8_t> out(kPage);
    std::vector<std::uint8_t> data(kPage);
    for (int i = 0; i < 40000; ++i) {
        // A hot set of 64 LBAs takes half the traffic.
        const Lba lba = rng.bernoulli(0.5) ? rng.uniformInt(64)
                                           : rng.uniformInt(1200);
        CacheAccessResult m, r;
        if (rng.bernoulli(0.45)) {
            std::fill(data.begin(), data.end(),
                      static_cast<std::uint8_t>(i));
            m = model.cache->write(lba);
            r = real.cache->writeData(lba, data.data());
        } else {
            m = model.cache->read(lba);
            r = real.cache->readData(lba, out.data());
        }
        ASSERT_EQ(m.hit, r.hit) << "op " << i;
        ASSERT_EQ(m.latency, r.latency) << "op " << i;
    }
    model.cache->flushAll();
    real.cache->flushAll();

    const FlashCacheStats& ms = model.cache->stats();
    const FlashCacheStats& rs = real.cache->stats();
    EXPECT_GT(ms.gcRuns, 0u);
    EXPECT_GT(ms.evictions, 0u);
    EXPECT_GT(ms.wearMigrations, 0u);
    EXPECT_GT(ms.hotMigrations, 0u);
    EXPECT_GT(ms.eccRetryReads, 0u);
    EXPECT_GT(model.controller->stats().correctedReads, 0u);
    // Unworn: no reconfiguration ever changed a page's code.
    EXPECT_EQ(ms.eccReconfigs, 0u);
    EXPECT_EQ(ms.densityReconfigs, 0u);

    EXPECT_EQ(ms.fgst.reads.hits(), rs.fgst.reads.hits());
    EXPECT_EQ(ms.fgst.reads.misses(), rs.fgst.reads.misses());
    EXPECT_EQ(ms.fgst.writes.hits(), rs.fgst.writes.hits());
    EXPECT_EQ(ms.fgst.writes.misses(), rs.fgst.writes.misses());
    EXPECT_EQ(ms.gcRuns, rs.gcRuns);
    EXPECT_EQ(ms.gcPageCopies, rs.gcPageCopies);
    EXPECT_EQ(ms.gcErases, rs.gcErases);
    EXPECT_EQ(ms.gcTime, rs.gcTime);
    EXPECT_EQ(ms.evictions, rs.evictions);
    EXPECT_EQ(ms.evictionFlushes, rs.evictionFlushes);
    EXPECT_EQ(ms.evictionTime, rs.evictionTime);
    EXPECT_EQ(ms.wearMigrations, rs.wearMigrations);
    EXPECT_EQ(ms.eccReconfigs, rs.eccReconfigs);
    EXPECT_EQ(ms.densityReconfigs, rs.densityReconfigs);
    EXPECT_EQ(ms.hotMigrations, rs.hotMigrations);
    EXPECT_EQ(ms.retiredBlocks, rs.retiredBlocks);
    EXPECT_EQ(ms.uncorrectableReads, rs.uncorrectableReads);
    EXPECT_EQ(ms.dataLossPages, rs.dataLossPages);
    EXPECT_EQ(ms.eccRetryReads, rs.eccRetryReads);
    EXPECT_EQ(ms.diskFlushFailures, rs.diskFlushFailures);
    EXPECT_EQ(ms.reconfigTime, rs.reconfigTime);

    const ControllerStats& mc = model.controller->stats();
    const ControllerStats& rc = real.controller->stats();
    EXPECT_EQ(mc.reads, rc.reads);
    EXPECT_EQ(mc.writes, rc.writes);
    EXPECT_EQ(mc.erases, rc.erases);
    EXPECT_EQ(mc.correctedReads, rc.correctedReads);
    EXPECT_EQ(mc.uncorrectableReads, rc.uncorrectableReads);
    EXPECT_EQ(mc.bitsCorrected, rc.bitsCorrected);
    EXPECT_EQ(mc.eccTime, rc.eccTime);

    const FlashOpStats& md = model.device->stats();
    const FlashOpStats& rd = real.device->stats();
    EXPECT_EQ(md.reads, rd.reads);
    EXPECT_EQ(md.programs, rd.programs);
    EXPECT_EQ(md.erases, rd.erases);
    EXPECT_EQ(md.busyTime, rd.busyTime);
    EXPECT_EQ(md.activeEnergy, rd.activeEnergy);

    EXPECT_EQ(model.cache->validPages(), real.cache->validPages());
    model.cache->checkInvariants();
    real.cache->checkInvariants();
}

TEST(RealDataCacheTest, ModeMismatchIsFatal)
{
    WearParams no_wear;
    no_wear.nominalCycles = 1e9;
    // realData without store_data device must fail fast.
    CellLifetimeModel lifetime(no_wear);
    FlashGeometry g;
    g.numBlocks = 8;
    g.framesPerBlock = 4;
    FlashDevice dev(g, FlashTiming(), lifetime, 1); // no store_data
    FlashMemoryController ctrl(dev);
    MemoryDisk disk;
    FlashCacheConfig cfg;
    cfg.realData = true;
    EXPECT_DEATH({ FlashCache cache(ctrl, disk, cfg); },
                 "store_data");

    // And plain-mode caches reject the data entry points.
    FlashDevice dev2(g, FlashTiming(), lifetime, 1, 0.0, true);
    FlashMemoryController ctrl2(dev2);
    FlashCache plain(ctrl2, disk); // realData defaults to false
    std::vector<std::uint8_t> buf(kPage);
    EXPECT_DEATH(plain.readData(1, buf.data()), "realData");
}

} // namespace
} // namespace flashcache
