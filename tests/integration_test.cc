/**
 * @file
 * Cross-module integration tests: the real ECC data path under
 * physical aging, end-to-end data integrity through the controller,
 * full-system determinism, and energy accounting consistency.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "controller/memory_controller.hh"
#include "core/flash_cache.hh"
#include "sim/system_sim.hh"
#include "workload/macro.hh"

namespace flashcache {
namespace {

FlashGeometry
tinyGeom()
{
    FlashGeometry g;
    g.numBlocks = 4;
    g.framesPerBlock = 4;
    return g;
}

TEST(RealPathAgingTest, DataSurvivesUntilEccExhausted)
{
    // Age a frame step by step; at every age, data written with a
    // strong code must read back bit-exact while the raw error count
    // stays within the strength — and the controller must flag (not
    // silently corrupt) once it is exceeded.
    WearParams wp;
    wp.nominalCycles = 100;
    wp.sigmaDecades = 0.8;
    CellLifetimeModel model(wp);
    FlashDevice dev(tinyGeom(), FlashTiming(), model, 8, 0.0, true);
    FlashMemoryController ctrl(dev);

    std::vector<std::uint8_t> data(2048);
    for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<std::uint8_t>(i * 13 + 7);
    std::vector<std::uint8_t> out(2048);

    const PageDescriptor strong{12, DensityMode::MLC};
    unsigned last_raw = 0;
    bool saw_corrected = false;
    for (int age = 0; age < 40000; ++age) {
        dev.eraseBlock(0);
        const unsigned raw = dev.hardErrors({0, 0, 0});
        EXPECT_GE(raw + 1, last_raw) << "hard errors must not heal";
        last_raw = raw;
        if (raw > 12)
            break;
        ctrl.writePage({0, 0, 0}, strong, data.data());
        const auto res = ctrl.readPage({0, 0, 0}, strong, out.data());
        ASSERT_NE(res.status, ReadStatus::Uncorrectable)
            << "raw=" << raw;
        ASSERT_EQ(out, data) << "corrupted data at raw=" << raw;
        saw_corrected |= res.status == ReadStatus::Corrected;
    }
    EXPECT_TRUE(saw_corrected) << "aging never produced bit errors";
    EXPECT_GT(last_raw, 12u) << "frame never exceeded the max code";

    // Past the strength limit, the failure must be *flagged*.
    ctrl.writePage({0, 0, 0}, strong, data.data());
    const auto res = ctrl.readPage({0, 0, 0}, strong, out.data());
    EXPECT_EQ(res.status, ReadStatus::Uncorrectable);
}

TEST(RealPathAgingTest, StrongerDescriptorOutlivesWeaker)
{
    // The same physical frame age: a t=12 descriptor keeps the page
    // readable strictly longer than t=1 (Figure 6(b)'s premise, here
    // on the real codec rather than the analytic model).
    WearParams wp;
    wp.nominalCycles = 100;
    wp.sigmaDecades = 0.8;
    CellLifetimeModel model(wp);

    auto erases_until_unreadable = [&](std::uint8_t t) {
        FlashDevice dev(tinyGeom(), FlashTiming(), model, 9, 0.0, true);
        FlashMemoryController ctrl(dev);
        std::vector<std::uint8_t> data(2048, 0xA5), out(2048);
        const PageDescriptor desc{t, DensityMode::MLC};
        for (int age = 1; age < 60000; ++age) {
            dev.eraseBlock(1);
            ctrl.writePage({1, 0, 0}, desc, data.data());
            const auto res = ctrl.readPage({1, 0, 0}, desc,
                                           out.data());
            if (res.status == ReadStatus::Uncorrectable)
                return age;
        }
        return 60000;
    };
    const int weak = erases_until_unreadable(1);
    const int strong = erases_until_unreadable(12);
    EXPECT_GT(strong, weak);
}

TEST(SystemDeterminismTest, SameSeedSameResults)
{
    auto run = [] {
        SystemConfig cfg;
        cfg.dramBytes = mib(8);
        cfg.flashBytes = mib(16);
        cfg.seed = 77;
        SystemSimulator sim(cfg);
        auto gen = makeMacro(macroConfig("Financial1", 0.02));
        sim.run(*gen, 50000);
        return std::tuple(sim.stats().wallClock,
                          sim.disk().accesses(),
                          sim.flashCache()->stats().gcRuns,
                          sim.flashCache()->validPages());
    };
    EXPECT_EQ(run(), run());
}

TEST(SystemEnergyTest, WallClockBoundsDeviceBusyTime)
{
    SystemConfig cfg;
    cfg.dramBytes = mib(8);
    cfg.flashBytes = mib(16);
    cfg.seed = 5;
    SystemSimulator sim(cfg);
    auto gen = makeMacro(macroConfig("dbt2", 0.02));
    sim.run(*gen, 100000);

    const Seconds wall = sim.stats().wallClock;
    EXPECT_GE(wall, sim.disk().busyTime() - 1e-9);
    EXPECT_GE(wall, sim.dram().readBusyTime() +
                    sim.dram().writeBusyTime() - 1e-9);

    // Power = energy / wall is internally consistent per component.
    const PowerReport p = sim.powerReport();
    const DramEnergy de = sim.dram().energyOver(wall);
    EXPECT_NEAR(p.memRead + p.memWrite + p.memIdle, de.total() / wall,
                1e-9);
    EXPECT_NEAR(p.disk, sim.disk().energyOver(wall) / wall, 1e-9);
    EXPECT_GT(p.total(), 0.0);
}

TEST(FullStackTest, EveryMacroWorkloadRunsClean)
{
    for (const auto& mc : table4MacroConfigs(0.01)) {
        SystemConfig cfg;
        cfg.dramBytes = mib(4);
        cfg.flashBytes = mib(8);
        cfg.seed = 11;
        SystemSimulator sim(cfg);
        auto gen = makeMacro(mc);
        sim.run(*gen, 40000);
        sim.flashCache()->checkInvariants();
        const double mr = sim.flashCache()->stats().fgst.reads.missRate();
        EXPECT_GE(mr, 0.0) << mc.name;
        EXPECT_LE(mr, 1.0) << mc.name;
        EXPECT_GT(sim.stats().throughput(), 0.0) << mc.name;
    }
}

TEST(FullStackTest, FlushedDataNeverLostOnCleanShutdown)
{
    // Every LBA ever written must reach the disk by shutdown (flush
    // or earlier eviction); with no wear, nothing may be lost.
    class RecordingDisk : public BackingStore
    {
      public:
        Seconds read(Lba) override { return milliseconds(4.2); }
        Seconds
        write(Lba lba) override
        {
            persisted.insert(lba);
            return milliseconds(4.2);
        }
        std::set<Lba> persisted;
    };

    CellLifetimeModel lifetime;
    const FlashGeometry geom = FlashGeometry::forMlcCapacity(mib(4));
    FlashDevice device(geom, FlashTiming(), lifetime, 3);
    FlashMemoryController controller(device);
    RecordingDisk disk;
    FlashCache cache(controller, disk);

    Rng rng(19);
    std::set<Lba> written;
    for (int i = 0; i < 30000; ++i) {
        const Lba lba = rng.uniformInt(3000);
        if (rng.bernoulli(0.5)) {
            cache.write(lba);
            written.insert(lba);
        } else {
            cache.read(lba);
        }
    }
    cache.flushAll();
    EXPECT_EQ(cache.stats().dataLossPages, 0u);
    for (const Lba lba : written)
        EXPECT_TRUE(disk.persisted.count(lba)) << lba;
}

} // namespace
} // namespace flashcache
