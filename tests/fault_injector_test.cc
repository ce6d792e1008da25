/**
 * @file
 * Fault-injection harness tests: deterministic replay, scheduled
 * one-shots, torn-page power cuts, and the cache's degraded-mode
 * responses (re-program after a program-status failure, retirement
 * after an erase failure, a failed disk fill or flush).
 */

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <vector>

#include "controller/memory_controller.hh"
#include "core/flash_cache.hh"
#include "fault/fault_injector.hh"
#include "obs/metrics.hh"
#include "support/memory_disk.hh"
#include "util/rng.hh"

namespace flashcache {
namespace {

constexpr std::uint32_t kPage = kTestPageBytes;

struct FaultStack
{
    explicit FaultStack(const FaultPlan& plan, std::uint32_t blocks = 8,
                        FlashCacheConfig cfg = FlashCacheConfig())
        : inj(plan)
    {
        WearParams no_wear;
        no_wear.nominalCycles = 1e9;
        lifetime = std::make_unique<CellLifetimeModel>(no_wear);
        FlashGeometry g;
        g.numBlocks = blocks;
        g.framesPerBlock = 4;
        device = std::make_unique<FlashDevice>(g, FlashTiming(),
                                               *lifetime, 2024, 0.0,
                                               /*store_data=*/true);
        device->attachFaultInjector(&inj);
        controller = std::make_unique<FlashMemoryController>(*device);
        cfg.realData = true;
        cache = std::make_unique<FlashCache>(*controller, disk, cfg);
    }

    FaultInjector inj;
    std::unique_ptr<CellLifetimeModel> lifetime;
    std::unique_ptr<FlashDevice> device;
    std::unique_ptr<FlashMemoryController> controller;
    MemoryDisk disk;
    std::unique_ptr<FlashCache> cache;
};

TEST(FaultInjectorTest, SeededPlansReplayBitIdentically)
{
    FaultPlan plan;
    plan.seed = 99;
    plan.programFailRate = 0.2;
    plan.eraseFailRate = 0.1;
    plan.readFaultRate = 0.3;

    FaultInjector a(plan);
    FaultInjector b(plan);
    for (int i = 0; i < 2000; ++i) {
        a.opStart();
        b.opStart();
        EXPECT_EQ(a.onProgram(), b.onProgram());
        EXPECT_EQ(a.onErase(), b.onErase());
        EXPECT_EQ(a.onRead(), b.onRead());
    }
    EXPECT_EQ(a.stats().programFails, b.stats().programFails);
    EXPECT_EQ(a.stats().readFaultBits, b.stats().readFaultBits);
    EXPECT_GT(a.stats().programFails, 0u);
    EXPECT_GT(a.stats().eraseFails, 0u);
    EXPECT_GT(a.stats().readFaults, 0u);
}

TEST(FaultInjectorTest, ScheduledOneShotsFireExactlyOnce)
{
    FaultPlan plan;
    plan.programFailAt = 3;
    plan.eraseFailAt = 2;
    FaultInjector inj(plan);
    int program_fails = 0, erase_fails = 0;
    for (int i = 0; i < 10; ++i) {
        inj.opStart();
        program_fails += inj.onProgram() == ProgramFault::StatusFail;
        erase_fails += inj.onErase();
    }
    EXPECT_EQ(program_fails, 1);
    EXPECT_EQ(erase_fails, 1);
    EXPECT_EQ(inj.stats().programFails, 1u);
    EXPECT_EQ(inj.stats().eraseFails, 1u);
}

TEST(FaultInjectorTest, InvalidRatesAreFatal)
{
    FaultPlan plan;
    plan.programFailRate = 1.5;
    EXPECT_DEATH({ FaultInjector inj(plan); }, "rate");
}

TEST(FaultInjectorTest, CleanPowerCutThrowsAndBlocksFurtherOps)
{
    FaultPlan plan;
    plan.powerCutAtOp = 4;
    FaultInjector inj(plan);
    for (int i = 0; i < 3; ++i)
        inj.opStart();
    EXPECT_THROW(inj.opStart(), PowerLossException);
    EXPECT_TRUE(inj.powerLost());
    EXPECT_DEATH(inj.opStart(), "power loss");
    inj.clearPowerLoss();
    inj.opStart(); // reboot: accepted again
    EXPECT_EQ(inj.stats().powerCuts, 1u);
}

TEST(FaultInjectorTest, MidProgramCutLeavesATornPage)
{
    FaultPlan plan;
    plan.powerCutAtProgram = 2;
    plan.tornFraction = 0.5;
    FaultStack s(plan);

    const auto a = pageContent(1, 1);
    s.cache->writeData(1, a.data());
    const auto b = pageContent(2, 1);
    EXPECT_THROW(s.cache->writeData(2, b.data()), PowerLossException);

    EXPECT_EQ(s.inj.stats().powerCuts, 1u);
    EXPECT_EQ(s.inj.stats().tornPages, 1u);

    // Exactly one programmed page on the medium is torn, and its
    // stored payload must not be the complete write.
    unsigned torn = 0;
    const auto& geom = s.device->geometry();
    for (std::uint32_t blk = 0; blk < geom.numBlocks; ++blk) {
        for (std::uint16_t f = 0; f < geom.framesPerBlock; ++f) {
            for (std::uint8_t sub = 0; sub < 2; ++sub) {
                const PageAddress addr{blk, f, sub};
                if (!s.device->isProgrammed(addr) ||
                    !s.device->isTorn(addr)) {
                    continue;
                }
                ++torn;
                const PageBytes pb = s.device->pageData(addr);
                ASSERT_TRUE(pb);
                EXPECT_NE(0, std::memcmp(pb.data, b.data(), kPage));
            }
        }
    }
    EXPECT_EQ(torn, 1u);
}

TEST(FaultInjectorTest, ProgramStatusFailureReprogramsElsewhere)
{
    FaultPlan plan;
    plan.programFailAt = 3;
    FaultStack s(plan);

    for (Lba l = 0; l < 6; ++l)
        s.cache->writeData(l, pageContent(l, 1).data());

    EXPECT_EQ(s.cache->stats().programFailReprograms, 1u);
    EXPECT_EQ(s.controller->stats().programFailures, 1u);

    // Every write survives, including the one whose first program
    // failed; the failed block retires once its pages drain.
    std::vector<std::uint8_t> out(kPage);
    for (Lba l = 0; l < 6; ++l) {
        s.cache->readData(l, out.data());
        EXPECT_EQ(0, std::memcmp(out.data(), pageContent(l, 1).data(),
                                 kPage))
            << "lba " << l;
    }
    s.cache->checkInvariants();
    EXPECT_GE(s.cache->stats().retiredBlocks, 1u);
}

TEST(FaultInjectorTest, ReprogramReformatChargesTheMigration)
{
    // Six fills (programs 1-6), then one hit each on LBAs 0-3 migrates
    // them to SLC (programs 7-10). The first migration reformats a
    // free block to SLC; its four SLC pages take programs 7-10, so
    // when the last one fails, the re-program needs a second reformat
    // erase. Both belong to the migration, not to eviction: the only
    // erase charged to eviction is the failed block's retirement.
    FaultPlan plan;
    plan.programFailAt = 10;
    FlashCacheConfig cfg;
    cfg.accessSaturation = 2;
    FaultStack s(plan, 8, cfg);
    std::vector<std::uint8_t> out(kPage);
    for (Lba l = 0; l < 6; ++l)
        s.cache->readData(l, out.data());
    for (Lba l = 0; l < 4; ++l)
        s.cache->readData(l, out.data());

    const FlashCacheStats& st = s.cache->stats();
    ASSERT_EQ(st.hotMigrations, 4u);
    ASSERT_EQ(st.programFailReprograms, 1u);
    ASSERT_EQ(st.evictions + st.gcRuns, 0u);
    ASSERT_EQ(s.device->stats().erases, 3u);
    const FlashTiming t;
    EXPECT_DOUBLE_EQ(st.evictionTime, t.slcEraseLatency);
    EXPECT_GE(st.reconfigTime, 2 * t.slcEraseLatency);
    s.cache->checkInvariants();
}

TEST(FaultInjectorTest, EraseFailureRetiresTheBlock)
{
    FaultPlan plan;
    plan.eraseFailAt = 1;
    FlashCacheConfig cfg;
    cfg.splitRegions = true;
    FaultStack s(plan, 8, cfg);

    // Small write region: enough write traffic forces GC erases.
    Rng rng(3);
    std::map<Lba, std::uint32_t> version;
    for (int i = 0; i < 300; ++i) {
        const Lba lba = rng.uniformInt(24);
        s.cache->writeData(lba, pageContent(lba, ++version[lba]).data());
    }
    EXPECT_EQ(s.cache->stats().eraseFailRetirements, 1u);
    EXPECT_EQ(s.controller->stats().eraseFailures, 1u);
    EXPECT_GE(s.cache->stats().retiredBlocks, 1u);
    s.cache->checkInvariants();

    // Data integrity survives the capacity shrink.
    std::vector<std::uint8_t> out(kPage);
    for (const auto& [lba, v] : version) {
        s.cache->readData(lba, out.data());
        EXPECT_EQ(0, std::memcmp(out.data(),
                                 pageContent(lba, v).data(), kPage))
            << "lba " << lba;
    }
}

TEST(FaultInjectorTest, DiskFillFailureIsServedAsMissNeverStale)
{
    // A payload store that honours the fault-aware hooks by failing
    // every read, like a disk whose sector went bad.
    class FailingDisk : public MemoryDisk
    {
      public:
        Seconds
        readData(Lba lba, std::uint8_t* out, bool& failed) override
        {
            failed = true;
            return MemoryDisk::readData(lba, out);
        }
    };

    WearParams no_wear;
    no_wear.nominalCycles = 1e9;
    CellLifetimeModel lifetime(no_wear);
    FlashGeometry g;
    g.numBlocks = 8;
    g.framesPerBlock = 4;
    FlashDevice dev(g, FlashTiming(), lifetime, 7, 0.0, true);
    FlashMemoryController ctrl(dev);
    FailingDisk disk;
    FlashCacheConfig cfg;
    cfg.realData = true;
    FlashCache cache(ctrl, disk, cfg);

    std::vector<std::uint8_t> out(kPage, 0xAB);
    const auto r = cache.readData(42, out.data());
    EXPECT_FALSE(r.hit);
    EXPECT_EQ(cache.stats().diskFillFailures, 1u);
    // Nothing was installed: the next read misses again instead of
    // serving whatever the failed fill left in the buffer.
    const auto r2 = cache.readData(42, out.data());
    EXPECT_FALSE(r2.hit);
    EXPECT_EQ(cache.stats().diskFillFailures, 2u);
    cache.checkInvariants();
}

TEST(FaultInjectorTest, FailedFlushKeepsTheReadableDirtyPage)
{
    // A payload store whose tagged (flush) writes always fail: the
    // dirty page's only good copy is in flash, so flushAll must keep
    // it valid and dirty rather than drop it and let the next read
    // serve the disk's stale bytes.
    class FailingFlushDisk : public MemoryDisk
    {
      public:
        Seconds
        writeTagged(Lba, const std::uint8_t*, std::uint64_t,
                    bool& failed) override
        {
            failed = true;
            return milliseconds(4.2);
        }
    };

    WearParams no_wear;
    no_wear.nominalCycles = 1e9;
    CellLifetimeModel lifetime(no_wear);
    FlashGeometry g;
    g.numBlocks = 8;
    g.framesPerBlock = 4;
    FlashDevice dev(g, FlashTiming(), lifetime, 7, 0.0, true);
    FlashMemoryController ctrl(dev);
    FailingFlushDisk disk;
    FlashCacheConfig cfg;
    cfg.realData = true;
    FlashCache cache(ctrl, disk, cfg);

    const auto content = pageContent(42, 1);
    cache.writeData(42, content.data());
    cache.flushAll();
    EXPECT_EQ(cache.stats().diskFlushFailures, 1u);
    EXPECT_EQ(cache.stats().dataLossPages, 0u);
    EXPECT_EQ(cache.validPages(), 1u);
    EXPECT_FALSE(disk.pages_.count(42));

    std::vector<std::uint8_t> out(kPage, 0);
    const auto r = cache.readData(42, out.data());
    EXPECT_TRUE(r.hit);
    EXPECT_EQ(out, content);

    // Still dirty: the next flush tries the disk again.
    cache.flushAll();
    EXPECT_EQ(cache.stats().diskFlushFailures, 2u);
    cache.checkInvariants();
}

TEST(FaultInjectorTest, MetricsRegisterUnderFaultPrefix)
{
    FaultPlan plan;
    plan.programFailAt = 1;
    FaultInjector inj(plan);
    obs::MetricRegistry reg;
    inj.registerMetrics(reg);
    EXPECT_TRUE(reg.has("fault.program_fails"));
    EXPECT_TRUE(reg.has("fault.erase_fails"));
    EXPECT_TRUE(reg.has("fault.read_faults"));
    EXPECT_TRUE(reg.has("fault.power_cuts"));
    EXPECT_TRUE(reg.has("fault.torn_pages"));
    EXPECT_EQ(reg.value("fault.program_fails"), 0.0);
    inj.opStart();
    (void)inj.onProgram(); // scheduled one-shot fires
    EXPECT_EQ(reg.value("fault.program_fails"), 1.0);
}

TEST(FaultInjectorTest, OobRecordRoundTripsAndRejectsCorruption)
{
    std::vector<std::uint8_t> spare(64, 0);
    OobRecord rec;
    rec.lba = 0x1234567890abcdefull;
    rec.seq = 42;
    rec.region = 1;
    rec.dirty = true;
    rec.eccStrength = 7;
    packOobRecord(spare.data(), 64, rec);

    OobRecord got;
    ASSERT_TRUE(parseOobRecord(spare.data(), 64, got));
    EXPECT_EQ(got.lba, rec.lba);
    EXPECT_EQ(got.seq, rec.seq);
    EXPECT_EQ(got.region, rec.region);
    EXPECT_EQ(got.dirty, rec.dirty);
    EXPECT_EQ(got.eccStrength, rec.eccStrength);

    // Any torn byte — in the record or anywhere in the covered
    // spare — invalidates the CRC.
    for (const std::size_t i : {0u, 10u, 41u, 50u, 63u}) {
        auto bad = spare;
        bad[i] ^= 0x40;
        EXPECT_FALSE(parseOobRecord(bad.data(), 64, got)) << i;
    }
    // An all-zero (erased) spare never parses.
    std::vector<std::uint8_t> zero(64, 0);
    EXPECT_FALSE(parseOobRecord(zero.data(), 64, got));
}

} // namespace
} // namespace flashcache
