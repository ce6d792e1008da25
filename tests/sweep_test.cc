/**
 * @file
 * The figure benches' sweep runner (bench/sweep.hh): a scripted sweep
 * prints its rows in point order, its --stats-json document parses
 * back to the same labels and values, and a path that cannot be
 * written fails with a message and leaves no file behind.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>
#include <unistd.h>

#include "bench/sweep.hh"
#include "support/json_parser.hh"

using namespace flashcache;

namespace {

namespace fs = std::filesystem;

/** A fresh directory of this process's own under the test temp dir. */
fs::path
freshDir(const std::string& name)
{
    const fs::path dir = fs::path(::testing::TempDir()) /
        (name + "_" + std::to_string(::getpid()));
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
}

/** Builds the runner from an argv of `args` after a binary name. */
bench::Sweep
makeSweep(std::vector<std::string> args)
{
    args.insert(args.begin(), "/some/dir/sweep_bench");
    std::vector<char*> argv;
    for (std::string& a : args)
        argv.push_back(a.data());
    return bench::Sweep(bench::Stack::CacheDirect,
                        static_cast<int>(argv.size()), argv.data());
}

/** Runs the scripted three-point sweep; `log` records every call. */
void
scriptedSweep(bench::Sweep& sweep, std::vector<std::string>& log)
{
    obs::MetricRegistry reg;
    const std::uint64_t ops = 42;
    reg.counter("stack.ops", "scripted counter", &ops);
    sweep.run(
        std::vector<int>{3, 1, 2},
        [](int p) { return "point " + std::to_string(p); },
        [&](int p) {
            log.push_back("run " + std::to_string(p));
            bench::Values v{{"p", p}, {"third", p / 3.0}};
            v.add(reg, "s");
            return v;
        },
        [&](int p, const bench::Values& v) {
            log.push_back("print " + std::to_string(p));
            std::printf("row %d %.3f\n", p, v["third"]);
        });
    sweep.summary().set("sum", 6.0);
}

TEST(SweepTest, RowsPrintInPointOrder)
{
    bench::Sweep sweep = makeSweep({});
    std::vector<std::string> log;
    ::testing::internal::CaptureStdout();
    scriptedSweep(sweep, log);
    std::fflush(stdout);
    EXPECT_EQ(::testing::internal::GetCapturedStdout(),
              "row 3 1.000\nrow 1 0.333\nrow 2 0.667\n");
    // Each row prints as soon as its own point has run.
    EXPECT_EQ(log, (std::vector<std::string>{"run 3", "print 3", "run 1",
                                             "print 1", "run 2",
                                             "print 2"}));
    ASSERT_EQ(sweep.rows().size(), 3u);
    EXPECT_EQ(sweep.rows()[1].label, "point 1");
    EXPECT_EQ(sweep.finish(), 0); // no --stats-json: nothing written
}

TEST(SweepTest, StatsJsonParsesBackToTheSameRows)
{
    const fs::path path = freshDir("sweep_json") / "sweep.json";
    bench::Sweep sweep = makeSweep({"--stats-json", path.string()});
    std::vector<std::string> log;
    ::testing::internal::CaptureStdout();
    scriptedSweep(sweep, log);
    ::testing::internal::GetCapturedStdout();
    ASSERT_EQ(sweep.finish(), 0);

    std::ifstream is(path);
    std::stringstream text;
    text << is.rdbuf();
    std::string error;
    const auto doc = obs::parseJson(text.str(), &error);
    ASSERT_TRUE(doc) << error;
    EXPECT_EQ(doc->keys(), (std::vector<std::string>{
                               "schema", "bench", "points", "summary"}));
    EXPECT_EQ(doc->find("schema")->str, "flashcache-sweep-v1");
    EXPECT_EQ(doc->find("bench")->str, "sweep_bench");

    const obs::JsonValue* points = doc->find("points");
    ASSERT_TRUE(points && points->isArray());
    ASSERT_EQ(points->array.size(), sweep.rows().size());
    for (std::size_t i = 0; i < points->array.size(); ++i) {
        const obs::JsonValue& point = points->array[i];
        const bench::Row& row = sweep.rows()[i];
        EXPECT_EQ(point.keys(),
                  (std::vector<std::string>{"label", "values"}));
        EXPECT_EQ(point.find("label")->str, row.label);
        const obs::JsonValue* values = point.find("values");
        ASSERT_TRUE(values && values->isObject());
        ASSERT_EQ(values->object.size(), row.values.items().size());
        for (std::size_t k = 0; k < values->object.size(); ++k) {
            const auto& [name, v] = values->object[k];
            EXPECT_EQ(name, row.values.items()[k].first);
            // Bit-exact: the writer prints round-trip doubles.
            EXPECT_EQ(v.number, row.values.items()[k].second) << name;
        }
    }
    EXPECT_EQ(points->array[0].find("label")->str, "point 3");
    EXPECT_EQ(points->array[0].find("values")->keys(),
              (std::vector<std::string>{"p", "third", "s.stack.ops"}));
    EXPECT_EQ(points->array[0].find("values")->find("s.stack.ops")->number,
              42.0);
    const obs::JsonValue* summary = doc->find("summary");
    ASSERT_TRUE(summary && summary->isObject());
    ASSERT_EQ(summary->keys(), std::vector<std::string>{"sum"});
    EXPECT_EQ(summary->find("sum")->number, 6.0);
    fs::remove_all(path.parent_path());
}

TEST(SweepDeathTest, LeftoverArgumentIsFatal)
{
    // A mistyped flag, and a stray word after a good one.
    EXPECT_EXIT(makeSweep({"--stat-json", "typo.json"}),
                ::testing::ExitedWithCode(1),
                "sweep_bench: unknown argument '--stat-json'");
    EXPECT_EXIT(makeSweep({"--stats-json", "sweep.json", "extra"}),
                ::testing::ExitedWithCode(1),
                "sweep_bench: unknown argument 'extra'");
}

TEST(SweepDeathTest, UnwritableStatsJsonFailsAndLeavesNoFile)
{
    const fs::path dir = freshDir("sweep_unwritable");
    // A path that names a directory, and one in a missing directory.
    for (const fs::path& path : {dir, dir / "missing" / "sweep.json"}) {
        bench::Sweep sweep = makeSweep({"--stats-json", path.string()});
        std::vector<std::string> log;
        ::testing::internal::CaptureStdout();
        scriptedSweep(sweep, log);
        ::testing::internal::GetCapturedStdout();
        EXPECT_EXIT(sweep.finish(), ::testing::ExitedWithCode(1),
                    "cannot write '" + path.string() + "'");
        EXPECT_FALSE(fs::exists(path.string() + ".tmp"));
    }
    EXPECT_TRUE(fs::is_directory(dir));
    EXPECT_TRUE(fs::is_empty(dir));
    EXPECT_FALSE(fs::exists(dir / "missing"));
    fs::remove_all(dir);
}

} // namespace
