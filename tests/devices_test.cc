/**
 * @file
 * DRAM and disk model tests (Table 2/3 behaviours feeding Figure 9).
 */

#include <gtest/gtest.h>

#include "devices/disk.hh"
#include "devices/dram.hh"
#include "util/stats.hh"

namespace flashcache {
namespace {

TEST(DramModelTest, DeviceCountFromCapacity)
{
    EXPECT_EQ(DramModel(mib(128)).deviceCount(), 1u);
    EXPECT_EQ(DramModel(mib(256)).deviceCount(), 2u);
    EXPECT_EQ(DramModel(mib(512)).deviceCount(), 4u);
    EXPECT_EQ(DramModel(mib(130)).deviceCount(), 2u); // rounds up
}

TEST(DramModelTest, AccessLatencyIncludesRowCycleAndTransfer)
{
    DramModel d(mib(256));
    const Seconds lat = d.read(2048);
    EXPECT_GT(lat, nanoseconds(50));
    EXPECT_LT(lat, microseconds(2));
    // Bigger transfers take longer.
    EXPECT_GT(d.write(65536), lat);
}

TEST(DramModelTest, EnergySplitsReadWriteIdle)
{
    DramModel d(mib(256));
    for (int i = 0; i < 100; ++i)
        d.read(2048);
    for (int i = 0; i < 50; ++i)
        d.write(2048);
    const DramEnergy e = d.energyOver(1.0);
    EXPECT_GT(e.read, 0.0);
    EXPECT_GT(e.write, 0.0);
    EXPECT_NEAR(e.read / e.write, 2.0, 0.01); // 2x the accesses
    // Idle dominates at this trivial utilization: 2 devices x 80 mW.
    EXPECT_NEAR(e.idle, 0.160, 1e-9);
    EXPECT_GT(e.idle, e.read + e.write);
}

TEST(DramModelTest, MoreCapacityMoreIdlePower)
{
    DramModel small(mib(128)), big(mib(512));
    EXPECT_GT(big.energyOver(1.0).idle, small.energyOver(1.0).idle);
}

TEST(DiskModelTest, RandomAccessMeanNearSpec)
{
    DiskModel disk;
    Rng rng(1);
    RunningStat lat;
    for (int i = 0; i < 20000; ++i)
        lat.add(disk.access(rng.next(), false));
    EXPECT_NEAR(lat.mean(), milliseconds(4.2), milliseconds(0.15));
}

TEST(DiskModelTest, SequentialAccessMuchCheaper)
{
    DiskModel disk;
    const Seconds r = disk.access(1000, false);
    const Seconds s = disk.access(1001, false); // consecutive LBA
    EXPECT_LT(s, r);
    EXPECT_LT(disk.access(5000, true), milliseconds(1));
}

TEST(DiskModelTest, EnergyActivePlusIdle)
{
    DiskSpec spec;
    DiskModel disk(spec);
    disk.access(1, false);
    const Seconds busy = disk.busyTime();
    EXPECT_GT(busy, 0.0);
    const Joules e = disk.energyOver(1.0);
    EXPECT_NEAR(e, busy * spec.activePower + (1.0 - busy) * spec.idlePower,
                1e-12);
    // Idle disk over 1 s burns idle power only.
    DiskModel idle_disk(spec);
    EXPECT_NEAR(idle_disk.energyOver(1.0), spec.idlePower, 1e-12);
    EXPECT_NEAR(idle_disk.powerOver(1.0), spec.idlePower, 1e-12);
}

TEST(DiskModelTest, CountsAccesses)
{
    DiskModel disk;
    for (int i = 0; i < 7; ++i)
        disk.access(i * 100, false);
    EXPECT_EQ(disk.accesses(), 7u);
}

TEST(DiskModelTest, FirstAccessPaysAFullSeek)
{
    // The head has no position before the first access, so LBA 1
    // first must not take the shortcut from the initial LBA 0.
    DiskModel disk;
    const Seconds first = disk.access(1, false);
    EXPECT_GE(first, 0.5 * DiskSpec().avgAccessLatency - 1e-12);

    // Once the head is parked, the next LBA is sequential.
    const Seconds seq = disk.access(2, false);
    EXPECT_NEAR(seq, 0.15 * DiskSpec().avgAccessLatency, 1e-12);
}

TEST(DiskModelTest, RecordsOneDemandPerAccess)
{
    sched::DemandSink sink;
    DiskModel disk;
    disk.attachDemandSink(&sink);

    Seconds sum = 0.0;
    for (Lba lba : {42u, 43u, 9000u})
        sum += disk.access(lba, false);
    ASSERT_EQ(sink.demands().size(), 3u);
    Seconds recorded = 0.0;
    for (const auto& d : sink.demands()) {
        EXPECT_EQ(d.kind, sched::ResourceKind::Disk);
        EXPECT_FALSE(d.background);
        recorded += d.service;
    }
    EXPECT_NEAR(recorded, sum, 1e-12);
    EXPECT_NEAR(recorded, disk.busyTime(), 1e-12);
}

} // namespace
} // namespace flashcache
