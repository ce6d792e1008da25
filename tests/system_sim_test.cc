/**
 * @file
 * System simulator tests: PDC behaviour, the flash tier's effect on
 * disk traffic, power integration (Figure 9's mechanism), throughput
 * accounting, the uniform-ECC override used by Figure 10, and the
 * warm-restart snapshot file.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "sim/system_sim.hh"
#include "workload/macro.hh"

namespace flashcache {
namespace {

SystemConfig
baseConfig()
{
    SystemConfig cfg;
    cfg.dramBytes = mib(8);
    cfg.flashBytes = 0;
    cfg.seed = 3;
    return cfg;
}

SyntheticConfig
smallZipf(double wf = 0.2)
{
    SyntheticConfig wl;
    wl.name = "zipf";
    wl.shape = TailShape::Zipf;
    wl.alpha = 1.0;
    wl.workingSetPages = 16384; // 32 MB, far over the tiny PDC
    wl.writeFraction = wf;
    return wl;
}

TEST(SystemSimTest, ZeroClientsIsFatal)
{
    SystemConfig cfg = baseConfig();
    cfg.clients = 0;
    EXPECT_DEATH(SystemSimulator{cfg}, "clients must be positive");
}

TEST(SystemSimTest, PdcAbsorbsHotReads)
{
    SystemConfig cfg = baseConfig();
    SystemSimulator sim(cfg);
    SyntheticConfig wl = smallZipf(0.0);
    wl.workingSetPages = 512; // fits in the PDC
    auto gen = makeSynthetic(wl);
    sim.run(*gen, 20000);
    EXPECT_GT(sim.stats().pdcReads.hitRate(), 0.9);
    // Warm set: the disk only sees the compulsory fills.
    EXPECT_LE(sim.disk().accesses(), 600u);
}

TEST(SystemSimTest, FlashTierCutsDiskTraffic)
{
    // A flash tier big enough for the working set absorbs nearly all
    // PDC misses; only compulsory fills and write-back flushes reach
    // the disk.
    SyntheticConfig wl = smallZipf(0.02);
    auto run_disk_accesses = [&](std::uint64_t flash_bytes) {
        SystemConfig cfg = baseConfig();
        cfg.flashBytes = flash_bytes;
        SystemSimulator sim(cfg);
        auto gen = makeSynthetic(wl);
        // Long enough that recurring misses dominate the one-time
        // compulsory fills.
        sim.run(*gen, 250000);
        return sim.disk().accesses();
    };
    const auto without = run_disk_accesses(0);
    const auto with = run_disk_accesses(mib(64));
    EXPECT_LT(with, without / 2);
}

TEST(SystemSimTest, FlashImprovesThroughputOnDiskBoundLoad)
{
    SyntheticConfig wl = smallZipf();
    auto throughput = [&](std::uint64_t flash_bytes) {
        SystemConfig cfg = baseConfig();
        cfg.flashBytes = flash_bytes;
        SystemSimulator sim(cfg);
        auto gen = makeSynthetic(wl);
        sim.run(*gen, 30000);
        return sim.stats().throughput();
    };
    EXPECT_GT(throughput(mib(24)), throughput(0));
}

TEST(SystemSimTest, PowerReportComponentsPositiveAndDiskDominant)
{
    SystemConfig cfg = baseConfig();
    SystemSimulator sim(cfg);
    auto gen = makeSynthetic(smallZipf());
    sim.run(*gen, 20000);
    const PowerReport p = sim.powerReport();
    EXPECT_GT(p.memIdle, 0.0);
    EXPECT_GT(p.memRead, 0.0);
    EXPECT_GT(p.memWrite, 0.0);
    EXPECT_GT(p.disk, 0.0);
    EXPECT_DOUBLE_EQ(p.flash, 0.0); // no flash configured
    // A disk-bound DRAM-only box: disk power is the biggest share.
    EXPECT_GT(p.disk, p.memRead + p.memWrite);
    EXPECT_GT(p.total(), 0.0);
}

TEST(SystemSimTest, EqualAreaFlashConfigSavesPower)
{
    // Figure 9's mechanism at small scale: trading most of the DRAM
    // for a bigger flash tier cuts memory idle power and disk busy
    // power at equal-or-better bandwidth.
    // Paper-sized memory configurations (Table 3 / Figure 9): a
    // 512 MB DRAM-only box vs 256 MB DRAM + 1 GB flash at roughly
    // equal die area. Halving the DRAM halves its idle power (2 vs
    // 4 devices) while the flash tier keeps the disk quiet.
    SyntheticConfig wl;
    wl.name = "zipf";
    wl.shape = TailShape::Zipf;
    wl.alpha = 1.0;
    wl.workingSetPages = mib(256) / 2048;
    wl.writeFraction = 0.2;
    auto run = [&](std::uint64_t dram, std::uint64_t flash) {
        SystemConfig cfg;
        cfg.dramBytes = dram;
        cfg.flashBytes = flash;
        cfg.seed = 3;
        SystemSimulator sim(cfg);
        auto gen = makeSynthetic(wl);
        sim.run(*gen, 120000);
        return std::pair(sim.powerReport(), sim.stats().throughput());
    };
    const auto [p_dram, t_dram] = run(mib(512), 0);
    const auto [p_flash, t_flash] = run(mib(256), gib(1));
    EXPECT_LT(p_flash.total(), p_dram.total());
    EXPECT_GT(t_flash, 0.8 * t_dram);
}

TEST(SystemSimTest, UniformEccStrengthSlowsThroughput)
{
    // Figure 10's mechanism: higher uniform BCH strength adds decode
    // latency to every flash read. The effect shows once the system
    // is flash-bound (working set cached in flash, disk quiet).
    SyntheticConfig wl = smallZipf(0.02);
    wl.workingSetPages = 4096; // 8 MB: cached entirely in flash
    wl.shape = TailShape::Uniform; // keep traffic below the PDC
    auto throughput = [&](std::uint8_t t) {
        SystemConfig cfg = baseConfig();
        cfg.dramBytes = mib(2); // small PDC so flash sees the reads
        cfg.flashBytes = mib(64);
        cfg.flashConfig.initialEccStrength = t;
        cfg.flashConfig.maxEccStrength = t;
        cfg.flashConfig.adaptiveReconfig = false;
        cfg.flashConfig.hotPageMigration = false;
        SystemSimulator sim(cfg);
        auto gen = makeSynthetic(wl);
        sim.run(*gen, 60000);
        return sim.stats().throughput();
    };
    const double weak = throughput(1);
    const double strong = throughput(30);
    EXPECT_LT(strong, weak);
    // But the degradation is graceful (paper: slow decline).
    EXPECT_GT(strong, 0.2 * weak);
}

TEST(SystemSimTest, WritebacksDrainDirtyPages)
{
    SystemConfig cfg = baseConfig();
    SystemSimulator sim(cfg);
    auto gen = makeSynthetic(smallZipf(0.6));
    sim.run(*gen, 5000);
    EXPECT_GT(sim.stats().writebacks, 0u);
}

TEST(SystemSimTest, MacroWorkloadEndToEnd)
{
    SystemConfig cfg = baseConfig();
    cfg.flashBytes = mib(16);
    SystemSimulator sim(cfg);
    auto gen = makeMacro(macroConfig("dbt2", 0.02));
    sim.run(*gen, 20000);
    ASSERT_NE(sim.flashCache(), nullptr);
    sim.flashCache()->checkInvariants();
    EXPECT_GT(sim.stats().throughput(), 0.0);
    EXPECT_GT(sim.flashCache()->stats().fgst.reads.total(), 0u);
}

TEST(SystemSimTest, RequestLatencyDoesNotClamp)
{
    // Compute time is exponential with mean 30 ms, so the true p99 of
    // request latency is at least 30 ms * ln 100 (~138 ms).
    SystemConfig cfg = baseConfig();
    cfg.computeTime = milliseconds(30);
    SystemSimulator sim(cfg);
    SyntheticConfig wl = smallZipf(0.0);
    wl.workingSetPages = 512;
    auto gen = makeSynthetic(wl);
    sim.run(*gen, 3000);
    const Histogram& lat = sim.stats().requestLatency;
    EXPECT_EQ(lat.total(), 3000u);
    EXPECT_GE(lat.percentile(0.99), 3 * cfg.computeTime);
}

/** The snapshot bytes FlashCache::saveState writes for `sim`. */
std::string
snapshotOf(const SystemSimulator& sim)
{
    std::ostringstream os;
    sim.flashCache()->saveState(os);
    return os.str();
}

TEST(SystemSimTest, FailedSaveKeepsThePreviousSnapshot)
{
    namespace fs = std::filesystem;
    const fs::path dir = fs::path(::testing::TempDir()) /
        ("flash_state_" + std::to_string(::getpid()));
    fs::remove_all(dir);
    fs::create_directories(dir);
    const std::string prefix = (dir / "state").string();

    SystemConfig cfg = baseConfig();
    cfg.flashBytes = mib(16);
    SystemSimulator sim(cfg);
    auto gen = makeSynthetic(smallZipf(0.3));
    sim.run(*gen, 20000);
    ASSERT_TRUE(sim.saveFlashState(prefix));
    // One save, one file: the device travels inside the snapshot.
    std::vector<std::string> files;
    for (const auto& entry : fs::directory_iterator(dir))
        files.push_back(entry.path().filename().string());
    EXPECT_EQ(files, std::vector<std::string>{"state.cache"});
    const std::string first = snapshotOf(sim);
    const std::uint64_t first_valid = sim.flashCache()->validPages();

    sim.run(*gen, 20000);
    ASSERT_NE(snapshotOf(sim), first);
    // A directory in the temporary's place makes the second save fail
    // at its open, for root too.
    fs::create_directory(prefix + ".cache.tmp");
    EXPECT_FALSE(sim.saveFlashState(prefix));
    EXPECT_TRUE(fs::is_directory(prefix + ".cache.tmp"));

    SystemSimulator restarted(cfg);
    ASSERT_TRUE(restarted.loadFlashState(prefix));
    EXPECT_EQ(restarted.flashCache()->validPages(), first_valid);
    EXPECT_EQ(snapshotOf(restarted), first);
    fs::remove_all(dir);
}

} // namespace
} // namespace flashcache
