/**
 * @file
 * Power-loss recovery fuzzing: drive a randomized workload into a
 * real-data cache, cut the power at seeded points (clean between-op
 * cuts and mid-program cuts that leave a torn page), discard the
 * in-DRAM tables exactly as a real cut would, run
 * FlashCache::recover() over the surviving medium, and differentially
 * verify every page the rebuilt cache serves against the ground-truth
 * model. The workload then runs to completion on the recovered cache
 * and the final flush must leave the backing store bit-exact.
 *
 * The invariant under test: recovery may lose the tail of recent
 * writes (pages torn or never programmed), but it must NEVER serve
 * bytes that do not correspond to some acknowledged version of the
 * page, and the rebuilt DRAM tables must pass checkInvariants().
 *
 * RecoveryFuzzSmoke (tier1) covers a dozen cut points; the full
 * sweep (RecoveryFuzzFull, label `recovery_fuzz`, run by the CI
 * recovery-fuzz job) lands 100+ cuts including mid-program ones.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <memory>
#include <vector>

#include "core/flash_cache.hh"
#include "fault/fault_injector.hh"
#include "support/memory_disk.hh"
#include "util/rng.hh"

namespace flashcache {
namespace {

constexpr std::uint32_t kPage = kTestPageBytes;

/**
 * The crash harness. Device, controller, injector and disk persist
 * across a power cut (they are the hardware); the FlashCache object
 * is discarded and rebuilt, losing all DRAM state by construction.
 */
struct CrashStack
{
    explicit CrashStack(const FaultPlan& plan)
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
        inj = std::make_unique<FaultInjector>(plan);
        device->attachFaultInjector(inj.get());
        controller = std::make_unique<FlashMemoryController>(*device);
        cache = std::make_unique<FlashCache>(*controller, disk, cfg());
    }

    static FlashCacheConfig
    cfg()
    {
        FlashCacheConfig c;
        c.realData = true;
        return c;
    }

    /** Power comes back: throw away DRAM, rebuild from the medium. */
    void
    reboot()
    {
        inj->clearPowerLoss();
        cache = std::make_unique<FlashCache>(*controller, disk, cfg());
        cache->recover();
    }

    /** Swap in a fresh injector (a one-shot fires once per injector
     *  lifetime; re-arming models the next scheduled cut). */
    void
    rearm(const FaultPlan& plan)
    {
        inj = std::make_unique<FaultInjector>(plan);
        device->attachFaultInjector(inj.get());
    }

    std::unique_ptr<FaultInjector> inj;
    std::unique_ptr<CellLifetimeModel> lifetime;
    std::unique_ptr<FlashDevice> device;
    std::unique_ptr<FlashMemoryController> controller;
    MemoryDisk disk;
    std::unique_ptr<FlashCache> cache;
};

struct Op
{
    Lba lba;
    bool isWrite;
};

/** The deterministic workload all cut points share. */
std::vector<Op>
makeWorkload(std::size_t n, std::uint64_t seed)
{
    std::vector<Op> ops;
    ops.reserve(n);
    Rng rng(seed);
    for (std::size_t i = 0; i < n; ++i) {
        Op op;
        op.lba = rng.uniformInt(60);
        op.isWrite = rng.bernoulli(0.45);
        ops.push_back(op);
    }
    return ops;
}

/**
 * Run the workload over one crash/recover cycle and verify.
 * @return true when the scheduled cut actually landed (one-shots at
 * large ordinals may never fire on short workloads).
 */
bool
runOneCut(const FaultPlan& plan)
{
    CrashStack s(plan);
    const auto ops = makeWorkload(1500, 42);

    // Ground truth: newest acknowledged version per LBA.
    std::map<Lba, std::uint32_t> version;
    std::vector<std::uint8_t> out(kPage);

    std::size_t resume = ops.size();
    bool cut = false;
    Lba inflight_lba = 0;
    std::uint32_t inflight_version = 0;
    bool inflight_write = false;

    for (std::size_t i = 0; i < ops.size(); ++i) {
        const Op& op = ops[i];
        try {
            if (op.isWrite) {
                // Not yet acknowledged: only bump the model once the
                // write returns.
                inflight_lba = op.lba;
                inflight_version = version[op.lba] + 1;
                inflight_write = true;
                s.cache->writeData(
                    op.lba,
                    pageContent(op.lba, inflight_version).data());
                version[op.lba] = inflight_version;
                inflight_write = false;
            } else {
                inflight_write = false;
                s.cache->readData(op.lba, out.data());
                const std::uint32_t v =
                    version.count(op.lba) ? version[op.lba] : 0;
                EXPECT_EQ(0, std::memcmp(out.data(),
                                         pageContent(op.lba, v).data(),
                                         kPage))
                    << "pre-cut lba " << op.lba << " op " << i;
            }
        } catch (const PowerLossException&) {
            cut = true;
            resume = i + 1;
            break;
        }
    }

    if (!cut) {
        // The one-shot did not fire during the workload; the final
        // flush still reads flash, so a clean-cut plan can land here.
        try {
            s.cache->flushAll();
            return false;
        } catch (const PowerLossException&) {
            cut = true;
            resume = ops.size();
            inflight_write = false;
        }
    }

    s.reboot();
    s.cache->checkInvariants();
    const auto& rec = s.cache->stats().recovery;
    EXPECT_EQ(rec.scannedPages,
              rec.tornPages + rec.duplicatePages + rec.stalePages +
                  rec.uncorrectablePages + rec.recoveredPages)
        << "recovery scan taxonomy must partition the scanned pages";

    // Differential verification: every LBA must read as some
    // acknowledged version. The single unacknowledged in-flight
    // write may legally surface as old or new; probe which side of
    // the cut it landed on and update the model accordingly.
    if (inflight_write) {
        s.cache->readData(inflight_lba, out.data());
        const auto newer = pageContent(inflight_lba, inflight_version);
        const auto older =
            pageContent(inflight_lba, inflight_version - 1);
        if (std::memcmp(out.data(), newer.data(), kPage) == 0) {
            version[inflight_lba] = inflight_version;
        } else {
            EXPECT_EQ(0, std::memcmp(out.data(), older.data(), kPage))
                << "in-flight write surfaced as neither version, lba "
                << inflight_lba;
        }
    }
    for (Lba lba = 0; lba < 60; ++lba) {
        const std::uint32_t v = version.count(lba) ? version[lba] : 0;
        s.cache->readData(lba, out.data());
        EXPECT_EQ(0, std::memcmp(out.data(),
                                 pageContent(lba, v).data(), kPage))
            << "post-recovery lba " << lba << " version " << v;
    }

    // Life goes on: the remaining workload runs to completion on the
    // recovered cache with the same integrity guarantee.
    for (std::size_t i = resume; i < ops.size(); ++i) {
        const Op& op = ops[i];
        if (op.isWrite) {
            const std::uint32_t v = ++version[op.lba];
            s.cache->writeData(op.lba, pageContent(op.lba, v).data());
        } else {
            s.cache->readData(op.lba, out.data());
            const std::uint32_t v =
                version.count(op.lba) ? version[op.lba] : 0;
            EXPECT_EQ(0, std::memcmp(out.data(),
                                     pageContent(op.lba, v).data(),
                                     kPage))
                << "post-resume lba " << op.lba << " op " << i;
        }
    }

    // Shutdown flush: the disk ends bit-exact for every written LBA.
    s.cache->flushAll();
    for (const auto& [lba, v] : version) {
        const auto want = pageContent(lba, v);
        const auto it = s.disk.pages_.find(lba);
        EXPECT_TRUE(it != s.disk.pages_.end()) << "lba " << lba;
        EXPECT_EQ(it->second, want) << "final disk image, lba " << lba;
    }
    s.cache->checkInvariants();
    return true;
}

/** Mid-program cut at the Nth page program (torn page). */
FaultPlan
programCutPlan(std::uint64_t n)
{
    FaultPlan plan;
    plan.seed = 0xFA17 + n;
    plan.powerCutAtProgram = n;
    return plan;
}

/** Clean cut before the Nth flash operation. */
FaultPlan
opCutPlan(std::uint64_t n)
{
    FaultPlan plan;
    plan.seed = 0x0FF + n;
    plan.powerCutAtOp = n;
    return plan;
}

TEST(RecoveryFuzzSmoke, MidProgramCuts)
{
    unsigned landed = 0;
    for (std::uint64_t n = 5; n <= 605; n += 75)
        landed += runOneCut(programCutPlan(n));
    EXPECT_GE(landed, 6u);
}

TEST(RecoveryFuzzSmoke, CleanCuts)
{
    unsigned landed = 0;
    for (std::uint64_t n = 3; n <= 2403; n += 600)
        landed += runOneCut(opCutPlan(n));
    EXPECT_GE(landed, 3u);
}

TEST(RecoveryFuzzSmoke, ImmediateCutRecoversEmptyCache)
{
    // Cut before anything was programmed: recovery over a blank
    // medium must yield a working, empty cache.
    EXPECT_TRUE(runOneCut(opCutPlan(1)));
}

TEST(RecoveryFuzzSmoke, RecoversMediumWithSlcModeFrames)
{
    // Regression: hot-page migration switches frames to SLC mode,
    // which has no second MLC page; the recovery scan must not
    // address sub-page 1 on such frames (doing so is a device fault).
    FaultPlan quiet;
    CrashStack s(quiet);
    std::vector<std::uint8_t> out(kPage);
    // Fill through read misses so the pages land on MLC read-region
    // slots (fresh writes may already sit on SLC frames).
    for (Lba l = 0; l < 12; ++l) {
        s.disk.writeData(l, pageContent(l, 1).data());
        s.cache->readData(l, out.data());
    }
    // Saturate the access counter of one page (default threshold 64)
    // to force an MLC->SLC migration before the cut.
    for (int i = 0; i < 80; ++i)
        s.cache->readData(3, out.data());
    ASSERT_GE(s.cache->stats().hotMigrations, 1u);

    s.reboot();
    s.cache->checkInvariants();
    for (Lba l = 0; l < 12; ++l) {
        s.cache->readData(l, out.data());
        EXPECT_EQ(0, std::memcmp(out.data(), pageContent(l, 1).data(),
                                 kPage))
            << "lba " << l;
    }
}

TEST(RecoveryFuzzFull, HundredPlusSeededCutPoints)
{
    unsigned landed = 0;
    // 90 mid-program cut points spanning the whole workload...
    for (std::uint64_t n = 1; n <= 891; n += 10)
        landed += runOneCut(programCutPlan(n));
    // ...plus 30 clean between-op cut points.
    for (std::uint64_t n = 1; n <= 2901; n += 100)
        landed += runOneCut(opCutPlan(n));
    // The ISSUE contract: at least 100 cuts actually landed, each
    // followed by recovery, differential verification, and a full
    // re-run of the remaining workload.
    EXPECT_GE(landed, 100u);
}

TEST(RecoveryFuzzFull, RepeatedCrashesOnOneMedium)
{
    // A machine that keeps losing power: crash, recover, re-arm the
    // next cut, crash again on the already-recovered medium.
    FaultPlan plan;
    plan.seed = 7;
    plan.powerCutAtProgram = 120;
    CrashStack s(plan);
    const auto ops = makeWorkload(4000, 99);
    std::map<Lba, std::uint32_t> version;
    std::vector<std::uint8_t> out(kPage);

    std::size_t i = 0;
    unsigned crashes = 0;
    while (i < ops.size()) {
        const Op& op = ops[i];
        try {
            if (op.isWrite) {
                const std::uint32_t v = version[op.lba] + 1;
                s.cache->writeData(op.lba,
                                   pageContent(op.lba, v).data());
                version[op.lba] = v;
            } else {
                s.cache->readData(op.lba, out.data());
                const std::uint32_t v =
                    version.count(op.lba) ? version[op.lba] : 0;
                ASSERT_EQ(0, std::memcmp(out.data(),
                                         pageContent(op.lba, v).data(),
                                         kPage))
                    << "lba " << op.lba << " op " << i << " crash "
                    << crashes;
            }
            ++i;
        } catch (const PowerLossException&) {
            ++crashes;
            // Roll the model back: the op that threw never completed.
            // (Writes bump the model only after returning, so nothing
            // to undo — but its content may legally surface anyway.)
            const Op& cut_op = ops[i];
            s.reboot();
            s.cache->checkInvariants();
            FaultPlan next = plan;
            next.seed = plan.seed + crashes;
            s.rearm(next); // 120 more programs until the next cut
            if (cut_op.isWrite) {
                const std::uint32_t nv = version[cut_op.lba] + 1;
                s.cache->readData(cut_op.lba, out.data());
                if (std::memcmp(out.data(),
                                pageContent(cut_op.lba, nv).data(),
                                kPage) == 0) {
                    version[cut_op.lba] = nv;
                } else {
                    ASSERT_EQ(0,
                              std::memcmp(
                                  out.data(),
                                  pageContent(cut_op.lba,
                                              version[cut_op.lba])
                                      .data(),
                                  kPage))
                        << "torn write surfaced as neither version";
                }
            }
            ++i; // the cut op is consumed either way
        }
    }
    EXPECT_GE(crashes, 3u);
    s.cache->flushAll();
    for (const auto& [lba, v] : version)
        ASSERT_EQ(s.disk.pages_[lba], pageContent(lba, v)) << lba;
}

} // namespace
} // namespace flashcache
