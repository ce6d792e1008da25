/**
 * @file
 * Coverage for the reporting and serialization utilities: power
 * report formatting and the binary scalar / vector round-trips that
 * back state persistence.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "sim/system_sim.hh"
#include "sim/power_report.hh"
#include "workload/synthetic.hh"
#include "util/serialize.hh"

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

TEST(SerializeTest, RecordsMatchPerFieldEncodingAcrossChunks)
{
    // 7-byte records, so chunks neither divide 64 KiB evenly nor
    // align to fields; three full chunks plus a partial one.
    constexpr std::size_t kBytes = 7;
    const std::uint64_t count = 3 * (kRecordChunkBytes / kBytes) + 5;
    const auto field = [](std::uint64_t i) {
        return static_cast<std::uint32_t>(i * 2654435761u);
    };

    std::stringstream bulk, per_field;
    putRecords(bulk, kBytes, count, [&](RecordCursor& r, std::uint64_t i) {
        r.put<std::uint32_t>(field(i));
        r.put<std::uint16_t>(static_cast<std::uint16_t>(i));
        r.put<std::uint8_t>(static_cast<std::uint8_t>(i >> 16));
    });
    for (std::uint64_t i = 0; i < count; ++i) {
        putScalar<std::uint32_t>(per_field, field(i));
        putScalar<std::uint16_t>(per_field, static_cast<std::uint16_t>(i));
        putScalar<std::uint8_t>(per_field,
                                static_cast<std::uint8_t>(i >> 16));
    }
    ASSERT_EQ(bulk.str(), per_field.str());

    std::uint64_t next = 0, bad = 0;
    getRecords(bulk, kBytes, count, [&](RecordCursor& r, std::uint64_t i) {
        bad += i != next++;
        bad += r.get<std::uint32_t>() != field(i);
        bad += r.get<std::uint16_t>() != static_cast<std::uint16_t>(i);
        bad += r.get<std::uint8_t>() != static_cast<std::uint8_t>(i >> 16);
    });
    EXPECT_EQ(next, count);
    EXPECT_EQ(bad, 0u);

    std::stringstream empty;
    putRecords(empty, kBytes, 0, [](RecordCursor&, std::uint64_t) {});
    EXPECT_TRUE(empty.str().empty());
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

TEST(SerializeDeathTest, TruncatedRecordsAreFatal)
{
    // One byte short of two full chunks: the second refill fails.
    const std::uint64_t count = 2 * kRecordChunkBytes / 4;
    std::stringstream ss(std::string(count * 4 - 1, '\0'));
    EXPECT_DEATH(getRecords(ss, 4, count,
                            [](RecordCursor& r, std::uint64_t) {
                                r.get<std::uint32_t>();
                            }),
                 "truncated state file");
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
