/**
 * @file
 * Workload substrate tests: trace IO, synthetic generator shapes
 * (Table 4), macro model characteristics, and the stack-distance
 * analyzer against a reference LRU simulation.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <unordered_set>

#include "support/lru_list.hh"
#include "workload/macro.hh"
#include "workload/stack_distance.hh"
#include "workload/synthetic.hh"
#include "workload/trace.hh"

namespace flashcache {
namespace {

TEST(TraceIoTest, RoundTrip)
{
    Trace t = {{10, false}, {20, true}, {10, false}, {99999999, true}};
    const std::string path = ::testing::TempDir() + "trace_rt.csv";
    saveTraceCsv(t, path);
    const Trace back = loadTraceCsv(path);
    EXPECT_EQ(back, t);
    std::remove(path.c_str());
}

/** Write `text` to a temp file and load it as a trace. */
Trace
loadTraceText(const std::string& name, const std::string& text)
{
    const std::string path = ::testing::TempDir() + name;
    std::FILE* f = std::fopen(path.c_str(), "w");
    std::fputs(text.c_str(), f);
    std::fclose(f);
    return loadTraceCsv(path);
}

TEST(TraceIoTest, BadRecordMidFileIsFatal)
{
    EXPECT_EXIT(loadTraceText("trace_mid.csv", "R,1\nW,abc\nR,3\n"),
                ::testing::ExitedWithCode(1), "record 2");
}

TEST(TraceIoTest, TrailingGarbageIsFatal)
{
    EXPECT_EXIT(loadTraceText("trace_junk.csv", "R,5 junk\n"),
                ::testing::ExitedWithCode(1), "record 1");
}

TEST(TraceIoTest, NegativeLbaIsFatal)
{
    EXPECT_EXIT(loadTraceText("trace_neg.csv", "W,-5\n"),
                ::testing::ExitedWithCode(1), "record 1");
}

TEST(TraceIoTest, LbaOverflowIsFatal)
{
    EXPECT_EXIT(loadTraceText("trace_big.csv",
                              "R,99999999999999999999999\n"),
                ::testing::ExitedWithCode(1), "record 1");
}

TEST(TraceIoTest, SaveWriteErrorIsFatal)
{
    const Trace t(100000, TraceRecord{12345, true});
    EXPECT_EXIT(saveTraceCsv(t, "/dev/full"), ::testing::ExitedWithCode(1),
                "cannot write trace file");
}

TEST(TraceIoTest, Summary)
{
    Trace t = {{1, false}, {2, true}, {1, true}, {7, false}};
    const TraceSummary s = summarizeTrace(t);
    EXPECT_EQ(s.records, 4u);
    EXPECT_EQ(s.writes, 2u);
    EXPECT_EQ(s.distinctPages, 3u);
    EXPECT_EQ(s.maxLba, 7u);
    EXPECT_DOUBLE_EQ(s.writeFraction(), 0.5);
    EXPECT_EQ(s.workingSetBytes(), 3u * 2048u);
}

TEST(SyntheticTest, Table4CatalogComplete)
{
    const auto configs = table4MicroConfigs();
    ASSERT_EQ(configs.size(), 6u);
    EXPECT_EQ(configs[0].name, "uniform");
    EXPECT_EQ(configs[1].name, "alpha1");
    EXPECT_EQ(configs[3].name, "alpha3");
    EXPECT_EQ(configs[4].name, "exp1");
    // Table 4: 512 MB footprint = 262144 pages of 2 KB.
    EXPECT_EQ(configs[0].workingSetPages, 262144u);
    EXPECT_DOUBLE_EQ(configs[1].alpha, 0.8);
    EXPECT_DOUBLE_EQ(configs[2].alpha, 1.2);
    EXPECT_DOUBLE_EQ(configs[3].alpha, 1.6);
    EXPECT_DOUBLE_EQ(configs[4].lambda, 0.01);
    EXPECT_DOUBLE_EQ(configs[5].lambda, 0.1);
}

TEST(SyntheticTest, WriteFractionRespected)
{
    SyntheticConfig cfg;
    cfg.workingSetPages = 1000;
    cfg.writeFraction = 0.3;
    auto gen = makeSynthetic(cfg);
    Rng rng(1);
    const Trace t = gen->generate(rng, 20000);
    const auto s = summarizeTrace(t);
    EXPECT_NEAR(s.writeFraction(), 0.3, 0.02);
}

TEST(SyntheticTest, FootprintBounded)
{
    for (auto cfg : table4MicroConfigs(0.01)) {
        auto gen = makeSynthetic(cfg);
        Rng rng(2);
        const Trace t = gen->generate(rng, 5000);
        for (const auto& r : t)
            EXPECT_LT(r.lba, gen->workingSetPages()) << cfg.name;
    }
}

TEST(SyntheticTest, TailShapesOrdered)
{
    // Hot-page concentration: exp2 > alpha3 > alpha1 > uniform. The
    // share of accesses landing on the hottest 1% of the *working
    // set* captures the tail length (the paper orders the micro
    // benchmarks exactly this way in Figure 11's discussion).
    auto top_share = [](const SyntheticConfig& cfg) {
        auto gen = makeSynthetic(cfg);
        Rng rng(3);
        std::vector<Lba> reads;
        for (int i = 0; i < 60000; ++i) {
            const auto r = gen->next(rng);
            if (!r.isWrite)
                reads.push_back(r.lba);
        }
        const auto prof = popularityProfile(reads);
        const std::size_t top = std::max<std::size_t>(
            static_cast<std::size_t>(cfg.workingSetPages / 100), 1);
        std::uint64_t hot = 0, total = 0;
        for (std::size_t i = 0; i < prof.size(); ++i) {
            total += prof[i];
            if (i < top)
                hot += prof[i];
        }
        return static_cast<double>(hot) / static_cast<double>(total);
    };
    const auto configs = table4MicroConfigs(0.02); // ~5243 pages
    const double uniform = top_share(configs[0]);
    const double alpha1 = top_share(configs[1]);
    const double alpha3 = top_share(configs[3]);
    const double exp2 = top_share(configs[5]);
    EXPECT_LT(uniform, alpha1);
    EXPECT_LT(alpha1, alpha3);
    EXPECT_LE(alpha3, exp2 + 0.05);
    EXPECT_GT(exp2, 0.95); // extreme short tail: rank ~ Exp(0.1)
}

TEST(SyntheticTest, ExponentialTailFoldsIntoMonotoneRankHistogram)
{
    // Exp(0.1) over only 16 ranks overflows the range ~20% of the
    // time. Folding keeps the popularity histogram monotone in rank;
    // the old clamp piled the entire overflow mass onto the coldest
    // rank, making the edge page the hottest by far.
    SyntheticConfig cfg;
    cfg.name = "exp-fold";
    cfg.shape = TailShape::Exponential;
    cfg.lambda = 0.1;
    cfg.workingSetPages = 16;
    cfg.writeFraction = 0.0; // reads only: lba == sampled rank
    auto gen = makeSynthetic(cfg);
    Rng rng(7);
    std::vector<std::uint64_t> count(16, 0);
    constexpr int kDraws = 200000;
    for (int i = 0; i < kDraws; ++i) {
        const TraceRecord r = gen->next(rng);
        ASSERT_LT(r.lba, 16u);
        ++count[r.lba];
    }
    // Monotone decreasing rank popularity, with slack for sampling
    // noise (the expected step ratio is e^-0.1 ~ 0.905 per rank).
    for (int i = 0; i + 1 < 16; ++i)
        EXPECT_GE(count[i] * 105 / 100, count[i + 1]) << "rank " << i;
    // The edge bin must stay the coldest end, not a clamp spike.
    EXPECT_LT(count[15], count[0]);
}

TEST(MacroTest, CatalogMatchesTable4)
{
    const auto configs = table4MacroConfigs();
    ASSERT_EQ(configs.size(), 6u);
    std::unordered_set<std::string> names;
    for (const auto& c : configs)
        names.insert(c.name);
    for (const char* n : {"dbt2", "SPECWeb99", "WebSearch1",
                          "WebSearch2", "Financial1", "Financial2"}) {
        EXPECT_TRUE(names.count(n)) << n;
    }
    // Figure 7's working set sizes: Financial2 443.8 MB,
    // WebSearch1 5116.7 MB.
    const auto f2 = macroConfig("Financial2");
    EXPECT_NEAR(static_cast<double>(f2.readPages) * 2048.0,
                443.8 * 1024 * 1024, 0.01 * 443.8 * 1024 * 1024);
    const auto ws1 = macroConfig("WebSearch1");
    EXPECT_NEAR(static_cast<double>(ws1.readPages) * 2048.0,
                5116.7 * 1024 * 1024, 0.01 * 5116.7 * 1024 * 1024);
}

TEST(MacroTest, CharacteristicMixes)
{
    Rng rng(4);
    // Financial1 is write-dominated; WebSearch is almost pure reads.
    auto wf = [&](const char* name) {
        auto gen = makeMacro(macroConfig(name, 0.01));
        Trace t = gen->generate(rng, 20000);
        return summarizeTrace(t).writeFraction();
    };
    EXPECT_GT(wf("Financial1"), 0.6);
    EXPECT_LT(wf("WebSearch1"), 0.05);
    EXPECT_LT(wf("SPECWeb99"), 0.10);
    const double dbt2 = wf("dbt2");
    EXPECT_GT(dbt2, 0.2);
    EXPECT_LT(dbt2, 0.5);
}

TEST(MacroTest, SequentialRunsAppear)
{
    auto gen = makeMacro(macroConfig("SPECWeb99", 0.01));
    Rng rng(5);
    const Trace t = gen->generate(rng, 20000);
    std::uint64_t seq = 0;
    for (std::size_t i = 1; i < t.size(); ++i)
        seq += !t[i].isWrite && t[i].lba == t[i - 1].lba + 1;
    // Mean run 4 => a large share of consecutive-page reads.
    EXPECT_GT(static_cast<double>(seq) / t.size(), 0.3);
}

TEST(MacroTest, UnknownNameIsFatal)
{
    EXPECT_DEATH(macroConfig("nope"), "unknown macro workload");
}

TEST(MacroTest, InvalidScaleIsFatal)
{
    // A negative, NaN or overflowing scale must not reach the page
    // count's integer conversion.
    for (const double scale : {-1.0, std::nan(""), 1e300}) {
        EXPECT_DEATH(table4MacroConfigs(scale), "invalid page count")
            << scale;
        EXPECT_DEATH(table4MicroConfigs(scale), "invalid page count")
            << scale;
    }
}

TEST(MacroTest, ZeroScaleKeepsTheMinimumFootprint)
{
    for (const MacroConfig& c : table4MacroConfigs(0.0))
        EXPECT_EQ(c.readPages, 64u) << c.name;
    for (const SyntheticConfig& c : table4MicroConfigs(0.0))
        EXPECT_EQ(c.workingSetPages, 64u) << c.name;
}

TEST(WorkloadByNameTest, NamesMatchIgnoringCase)
{
    std::vector<Trace> draws;
    for (const char* name : {"financial1", "FINANCIAL1", "Financial1"}) {
        auto gen = makeWorkloadByName(name, 0.02);
        ASSERT_NE(gen, nullptr) << name;
        EXPECT_EQ(gen->name(), "Financial1");
        Rng rng(11);
        draws.push_back(gen->generate(rng, 1000));
    }
    EXPECT_EQ(draws[0], draws[2]);
    EXPECT_EQ(draws[1], draws[2]);
    EXPECT_EQ(makeWorkloadByName("nosuch", 0.02), nullptr);
}

TEST(StackDistanceTest, MatchesReferenceLruSimulation)
{
    // Cross-check hits at several sizes against a direct LRU sim.
    Rng rng(6);
    ZipfSampler zipf(500, 1.0);
    std::vector<Lba> seq;
    for (int i = 0; i < 8000; ++i)
        seq.push_back(zipf.sample(rng));

    StackDistance sd;
    for (const Lba l : seq)
        sd.access(l);

    for (const std::uint64_t size : {1ull, 8ull, 64ull, 256ull, 1024ull}) {
        LruList<Lba> lru;
        std::uint64_t hits = 0;
        for (const Lba l : seq) {
            if (lru.contains(l))
                ++hits;
            else if (lru.size() >= size)
                lru.popLru();
            lru.touch(l);
        }
        EXPECT_EQ(sd.hitsAtSize(size), hits) << "size " << size;
    }
}

TEST(StackDistanceTest, ColdMissesAndDistinct)
{
    StackDistance sd;
    for (const Lba l : {1, 2, 3, 1, 2, 3})
        sd.access(l);
    EXPECT_EQ(sd.coldMisses(), 3u);
    EXPECT_EQ(sd.distinctPages(), 3u);
    EXPECT_EQ(sd.accesses(), 6u);
    // Distance-2 accesses hit only caches of size >= 3.
    EXPECT_EQ(sd.hitsAtSize(2), 0u);
    EXPECT_EQ(sd.hitsAtSize(3), 3u);
    EXPECT_DOUBLE_EQ(sd.missRateAtSize(3), 0.5);
}

TEST(StackDistanceTest, MissRateMonotoneInSize)
{
    Rng rng(7);
    StackDistance sd;
    for (int i = 0; i < 5000; ++i)
        sd.access(rng.uniformInt(800));
    double prev = 1.0;
    for (std::uint64_t s = 1; s <= 1024; s *= 2) {
        const double mr = sd.missRateAtSize(s);
        EXPECT_LE(mr, prev + 1e-12);
        prev = mr;
    }
}

TEST(PopularityProfileTest, SortedAndComplete)
{
    const std::vector<Lba> acc = {5, 5, 5, 9, 9, 1};
    const auto prof = popularityProfile(acc);
    ASSERT_EQ(prof.size(), 3u);
    EXPECT_EQ(prof[0], 3u);
    EXPECT_EQ(prof[1], 2u);
    EXPECT_EQ(prof[2], 1u);
}

} // namespace
} // namespace flashcache
