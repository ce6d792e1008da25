/**
 * @file
 * Coverage for the reporting and serialization utilities: power
 * report formatting, histogram rendering, and the binary scalar /
 * vector round-trips that back state persistence.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "sim/system_sim.hh"
#include "sim/power_report.hh"
#include "workload/synthetic.hh"
#include "util/serialize.hh"
#include "util/stats.hh"

namespace flashcache {
namespace {

TEST(PowerReportTest, TotalsAndFormatting)
{
    PowerReport p;
    p.memRead = 0.1;
    p.memWrite = 0.2;
    p.memIdle = 0.3;
    p.flash = 0.05;
    p.disk = 1.0;
    EXPECT_DOUBLE_EQ(p.total(), 1.65);
    const std::string s = p.toString();
    EXPECT_NE(s.find("mem RD 0.100 W"), std::string::npos);
    EXPECT_NE(s.find("disk 1.000 W"), std::string::npos);
    EXPECT_NE(s.find("total 1.650 W"), std::string::npos);
}

TEST(PowerReportTest, DefaultIsZero)
{
    PowerReport p;
    EXPECT_DOUBLE_EQ(p.total(), 0.0);
}

TEST(HistogramRenderingTest, SkipsEmptyBins)
{
    Histogram h(0.0, 10.0, 10);
    h.add(1.5);
    h.add(1.7);
    h.add(8.2);
    const std::string s = h.toString();
    EXPECT_NE(s.find("1..2: 2"), std::string::npos);
    EXPECT_NE(s.find("8..9: 1"), std::string::npos);
    EXPECT_EQ(s.find("3..4"), std::string::npos);
}

TEST(SerializeTest, ScalarRoundTrips)
{
    std::stringstream ss;
    putScalar<std::uint8_t>(ss, 0xAB);
    putScalar<std::uint64_t>(ss, 0x1122334455667788ull);
    putScalar<float>(ss, 3.5f);
    putScalar<double>(ss, -1.25);
    putScalar<std::int8_t>(ss, -7);

    EXPECT_EQ(getScalar<std::uint8_t>(ss), 0xAB);
    EXPECT_EQ(getScalar<std::uint64_t>(ss), 0x1122334455667788ull);
    EXPECT_FLOAT_EQ(getScalar<float>(ss), 3.5f);
    EXPECT_DOUBLE_EQ(getScalar<double>(ss), -1.25);
    EXPECT_EQ(getScalar<std::int8_t>(ss), -7);
}

TEST(SerializeTest, VectorRoundTrip)
{
    std::stringstream ss;
    const std::vector<std::uint32_t> v = {1, 2, 3, 0xFFFFFFFF};
    putVector(ss, v);
    putVector(ss, std::vector<float>{});
    EXPECT_EQ(getVector<std::uint32_t>(ss), v);
    EXPECT_TRUE(getVector<float>(ss).empty());
}

TEST(SerializeTest, MagicRoundTrip)
{
    std::stringstream ss;
    putMagic(ss, "TESTMAG1");
    expectMagic(ss, "TESTMAG1"); // no fatal
    SUCCEED();
}

TEST(SerializeDeathTest, TruncatedScalarIsFatal)
{
    std::stringstream ss;
    putScalar<std::uint8_t>(ss, 1);
    getScalar<std::uint8_t>(ss);
    EXPECT_DEATH(getScalar<std::uint64_t>(ss), "truncated");
}

TEST(SerializeDeathTest, ImplausibleVectorLengthIsFatal)
{
    std::stringstream ss;
    putScalar<std::uint64_t>(ss, 1ull << 40); // absurd element count
    EXPECT_DEATH(getVector<std::uint8_t>(ss), "implausible");
}

TEST(SerializeDeathTest, UnbackedVectorLengthIsTruncationNotAllocation)
{
    // A plausible 2^32-element prefix with no body must fail as a
    // truncated file without first reserving 16 GB.
    std::stringstream ss;
    putScalar<std::uint64_t>(ss, 1ull << 32);
    EXPECT_DEATH(getVector<std::uint32_t>(ss), "truncated state file");
}

TEST(SerializeDeathTest, MagicMismatchIsFatal)
{
    std::stringstream ss;
    putMagic(ss, "AAAABBBB");
    EXPECT_DEATH(expectMagic(ss, "CCCCDDDD"), "magic");
}


TEST(StatsDumpTest, ContainsAllSections)
{
    SystemConfig cfg;
    cfg.dramBytes = mib(4);
    cfg.flashBytes = mib(8);
    cfg.seed = 2;
    SystemSimulator sim(cfg);
    SyntheticConfig wl;
    wl.workingSetPages = 2000;
    auto gen = makeSynthetic(wl);
    sim.run(*gen, 20000);

    std::stringstream ss;
    sim.dumpStats(ss);
    const std::string s = ss.str();
    for (const char* key :
         {"system.requests", "system.throughput", "pdc.read_hit_rate",
          "disk.accesses", "cache.read_hit_rate", "cache.gc_runs",
          "ecc.busy", "power.total"}) {
        EXPECT_NE(s.find(key), std::string::npos) << key;
    }
    // Sanity: the request count renders as the number we ran.
    EXPECT_NE(s.find("20000"), std::string::npos);
}

} // namespace
} // namespace flashcache
