/**
 * @file
 * Observability coverage: the JSON writer/parser round-trip, the
 * metric registry (registration, composite expansion, stable JSON
 * schema and key order, the gem5-style text dump), the timeline
 * tracer (ring wrap, Chrome export with named tracks and
 * non-overlapping lanes), the trace the event engine writes (service
 * spans sum to the scheduler's busy time, queueing shows, tracing
 * changes no result), and the shared --stats-json/--trace-out flag
 * parsing.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "obs/cli.hh"
#include "obs/json.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "sim/system_sim.hh"
#include "support/json_parser.hh"
#include "util/rng.hh"
#include "workload/macro.hh"
#include "workload/synthetic.hh"

namespace flashcache {
namespace obs {
namespace {

// ---------------------------------------------------------------- JSON

TEST(JsonWriterTest, CompactNestedDocument)
{
    std::ostringstream os;
    {
        JsonWriter w(os, 0);
        w.beginObject();
        w.member("a", std::uint64_t(1));
        w.key("b");
        w.beginArray();
        w.value(2.5);
        w.value("x");
        w.endArray();
        w.endObject();
    }
    EXPECT_EQ(os.str(), "{\"a\":1,\"b\":[2.5,\"x\"]}");
}

TEST(JsonWriterTest, IntegralDoublesPrintWithoutExponent)
{
    std::ostringstream os;
    {
        JsonWriter w(os, 0);
        w.beginArray();
        w.value(20000.0);
        w.value(0.125);
        w.endArray();
    }
    EXPECT_EQ(os.str(), "[20000,0.125]");
}

TEST(JsonWriterTest, EscapesControlAndQuote)
{
    std::ostringstream os;
    {
        JsonWriter w(os, 0);
        w.value(std::string_view("a\"b\\c\n\t"));
    }
    EXPECT_EQ(os.str(), "\"a\\\"b\\\\c\\n\\t\"");
}

TEST(JsonParseTest, RoundTripPreservesKeyOrder)
{
    const std::string doc =
        "{\"zeta\": 1, \"alpha\": [true, null, \"s\"],"
        " \"mid\": {\"x\": -2.5e2}}";
    const auto v = parseJson(doc);
    ASSERT_TRUE(v.has_value());
    ASSERT_TRUE(v->isObject());
    EXPECT_EQ(v->keys(),
              (std::vector<std::string>{"zeta", "alpha", "mid"}));
    EXPECT_DOUBLE_EQ(v->find("zeta")->number, 1.0);
    ASSERT_TRUE(v->find("alpha")->isArray());
    EXPECT_TRUE(v->find("alpha")->array[1].isNull());
    EXPECT_EQ(v->find("alpha")->array[2].str, "s");
    EXPECT_DOUBLE_EQ(v->find("mid")->find("x")->number, -250.0);
}

TEST(JsonParseTest, UnicodeEscapeDecodes)
{
    const auto v = parseJson("\"\\u0041\\u00e9\"");
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(v->str, "A\xC3\xA9");
}

TEST(JsonParseTest, RejectsMalformed)
{
    std::string err;
    EXPECT_FALSE(parseJson("{\"a\":}", &err).has_value());
    EXPECT_FALSE(parseJson("{} trailing", &err).has_value());
    EXPECT_FALSE(parseJson("[1,]", &err).has_value());
    EXPECT_FALSE(parseJson("", &err).has_value());
    std::string deep(100, '[');
    EXPECT_FALSE(parseJson(deep, &err).has_value());
}

// ------------------------------------------------------------- Registry

TEST(MetricRegistryTest, CountersGaugesAndValue)
{
    std::uint64_t hits = 7;
    double busy = 1.5;
    MetricRegistry reg;
    reg.counter("t.hits", "hits", &hits);
    reg.counter("t.busy", "busy seconds", &busy);
    reg.gauge("t.rate", "hits per busy", [&] { return hits / busy; });

    EXPECT_EQ(reg.size(), 3u);
    EXPECT_TRUE(reg.has("t.hits"));
    EXPECT_FALSE(reg.has("t.nope"));
    EXPECT_DOUBLE_EQ(reg.value("t.hits"), 7.0);
    hits = 8; // live pointer, not a copy
    EXPECT_DOUBLE_EQ(reg.value("t.hits"), 8.0);
    EXPECT_DOUBLE_EQ(reg.value("t.busy"), 1.5);
    EXPECT_DOUBLE_EQ(reg.value("t.rate"), 8.0 / 1.5);
}

TEST(MetricRegistryTest, RatioExpandsToThreeMetrics)
{
    RatioStat r;
    r.hit();
    r.hit();
    r.miss();
    MetricRegistry reg;
    reg.ratio("t.read", "test reads", &r);
    EXPECT_DOUBLE_EQ(reg.value("t.read_hits"), 2.0);
    EXPECT_DOUBLE_EQ(reg.value("t.read_misses"), 1.0);
    EXPECT_NEAR(reg.value("t.read_hit_rate"), 2.0 / 3.0, 1e-12);
}

TEST(MetricRegistryDeathTest, DuplicateNameIsFatal)
{
    std::uint64_t v = 0;
    MetricRegistry reg;
    reg.counter("t.dup", "first", &v);
    EXPECT_DEATH(reg.counter("t.dup", "second", &v),
                 "duplicate metric");
}

TEST(MetricRegistryDeathTest, UnknownAndHistogramValueArePanics)
{
    Histogram h;
    MetricRegistry reg;
    reg.histogram("t.hist", "a histogram", &h);
    EXPECT_DEATH(reg.value("t.nope"), "unknown metric");
    EXPECT_DEATH(reg.value("t.hist"), "histogram");
}

TEST(MetricRegistryTest, JsonSchemaAndRegistrationOrder)
{
    std::uint64_t c = 42;
    Histogram h;
    h.add(0.5);
    h.add(0.51);
    h.add(3.5);
    MetricRegistry reg;
    reg.counter("z.last_registered_first", "order check", &c);
    reg.gauge("a.gauge", "g", [] { return 1.25; });
    reg.histogram("m.hist", "latency", &h);

    std::ostringstream os;
    reg.toJson(os);
    const auto v = parseJson(os.str());
    ASSERT_TRUE(v.has_value()) << os.str();
    EXPECT_EQ(v->find("schema")->str, "flashcache-stats-v1");
    const JsonValue* m = v->find("metrics");
    ASSERT_NE(m, nullptr);
    // Key order is registration order, not alphabetical.
    EXPECT_EQ(m->keys(),
              (std::vector<std::string>{"z.last_registered_first",
                                        "a.gauge", "m.hist"}));
    EXPECT_DOUBLE_EQ(m->find("z.last_registered_first")->number, 42.0);
    const JsonValue* hist = m->find("m.hist");
    ASSERT_NE(hist, nullptr);
    EXPECT_DOUBLE_EQ(hist->find("count")->number, 3.0);
    EXPECT_TRUE(hist->find("p50")->isNumber());
    EXPECT_TRUE(hist->find("p99")->isNumber());
    // Two occupied bins, each [lo, hi, count]: two samples in
    // [0.5, 0.53125), one in [3.5, 3.625).
    const JsonValue* bins = hist->find("bins");
    ASSERT_TRUE(bins->isArray());
    ASSERT_EQ(bins->array.size(), 2u);
    EXPECT_DOUBLE_EQ(bins->array[0].array[0].number, 0.5);
    EXPECT_DOUBLE_EQ(bins->array[0].array[1].number, 0.53125);
    EXPECT_DOUBLE_EQ(bins->array[0].array[2].number, 2.0);
    EXPECT_DOUBLE_EQ(bins->array[1].array[0].number, 3.5);
    EXPECT_DOUBLE_EQ(bins->array[1].array[1].number, 3.625);
    EXPECT_DOUBLE_EQ(bins->array[1].array[2].number, 1.0);
}

TEST(MetricRegistryTest, TextDumpHasNameValueDesc)
{
    std::uint64_t c = 20000;
    MetricRegistry reg;
    reg.counter("t.requests", "requests served", &c);
    std::ostringstream os;
    reg.dumpText(os);
    const std::string s = os.str();
    EXPECT_NE(s.find("t.requests"), std::string::npos);
    EXPECT_NE(s.find("20000"), std::string::npos); // integer, not 2e4
    EXPECT_NE(s.find("# requests served"), std::string::npos);
}

// --------------------------------------------------------------- Tracer

TEST(TracerTest, RingWrapsWithoutGrowingAndCountsDrops)
{
    Tracer t(4);
    for (int i = 0; i < 10; ++i)
        t.record(0, "e", "c", i, 1.0);
    EXPECT_EQ(t.size(), 4u);
    EXPECT_EQ(t.capacity(), 4u);
    EXPECT_EQ(t.recorded(), 10u);
    EXPECT_EQ(t.dropped(), 6u);
    const auto evs = t.events();
    ASSERT_EQ(evs.size(), 4u);
    // Oldest-first: the four newest events survive, in order.
    for (std::size_t i = 0; i < evs.size(); ++i) {
        EXPECT_EQ(evs[i].seq, 6u + i);
        EXPECT_DOUBLE_EQ(evs[i].start, 6.0 + static_cast<double>(i));
    }
}

/** The "X" events of a parsed Chrome trace, by (pid, tid) lane. */
struct Span
{
    std::string name;
    std::string cat;
    double ts;
    double dur;
};
using Lanes = std::map<std::pair<int, int>, std::vector<Span>>;

/**
 * Chrome-trace validity: the export parses, every span has ts >= 0
 * and sits on a named track (process), and no lane (pid, tid) holds
 * two overlapping spans. Returns the spans by lane, each in ts order.
 */
Lanes
expectValidChromeTrace(const std::string& text)
{
    Lanes lanes;
    std::string err;
    const auto v = parseJson(text, &err);
    EXPECT_TRUE(v.has_value()) << err;
    if (!v)
        return lanes;
    EXPECT_EQ(v->find("displayTimeUnit")->str, "ms");
    const JsonValue* evs = v->find("traceEvents");
    EXPECT_TRUE(evs && evs->isArray() && !evs->array.empty());
    if (!evs)
        return lanes;

    std::set<int> named;
    for (const JsonValue& e : evs->array) {
        const int pid = static_cast<int>(e.find("pid")->number);
        if (e.find("ph")->str == "M") {
            if (e.find("name")->str == "process_name") {
                EXPECT_FALSE(e.find("args")->find("name")->str.empty());
                named.insert(pid);
            }
            continue;
        }
        EXPECT_EQ(e.find("ph")->str, "X");
        const int tid = static_cast<int>(e.find("tid")->number);
        lanes[{pid, tid}].push_back(
            {e.find("name")->str, e.find("cat")->str,
             e.find("ts")->number, e.find("dur")->number});
    }
    constexpr double kEps = 1e-6; // µs; absorbs float rounding
    for (auto& [lane, spans] : lanes) {
        EXPECT_TRUE(named.count(lane.first)) << "unnamed track "
                                             << lane.first;
        std::sort(spans.begin(), spans.end(),
                  [](const Span& a, const Span& b) { return a.ts < b.ts; });
        for (std::size_t i = 0; i < spans.size(); ++i) {
            EXPECT_GE(spans[i].ts, 0.0);
            EXPECT_GE(spans[i].dur, 0.0);
            if (i > 0) {
                const Span& prev = spans[i - 1];
                EXPECT_GE(spans[i].ts, prev.ts + prev.dur - kEps)
                    << spans[i].name << " overlaps " << prev.name
                    << " on track " << lane.first << " lane "
                    << lane.second;
            }
        }
    }
    return lanes;
}

TEST(TracerTest, ExportIsWellFormedAndNested)
{
    Tracer t(64);
    t.nameTrack(0, "ecc");
    t.nameTrack(1, "client 0");
    // A request with its compute and two stages on a client track...
    t.record(1, "request", "client", 0.0, 0.004);
    t.record(1, "compute", "client", 0.0, 0.001);
    t.record(1, "ecc wait", "wait", 0.001, 0.001);
    t.record(1, "ecc", "fg", 0.002, 0.002);
    // ...and two servers of one resource overlapping, then a third
    // op that finds the first server free again.
    t.record(0, "ecc", "fg", 0.002, 0.002);
    t.record(0, "ecc", "bg", 0.003, 0.002);
    t.record(0, "ecc", "bg", 0.004, 0.001);
    std::ostringstream os;
    t.exportChromeTrace(os);
    const Lanes lanes = expectValidChromeTrace(os.str());

    // The request holds lane 0 of its track; its stages nest below
    // it on lane 1, inside its interval.
    const auto req = lanes.find({1, 0});
    ASSERT_NE(req, lanes.end());
    ASSERT_EQ(req->second.size(), 1u);
    EXPECT_EQ(req->second[0].name, "request");
    const auto stages = lanes.find({1, 1});
    ASSERT_NE(stages, lanes.end());
    ASSERT_EQ(stages->second.size(), 3u);
    for (const Span& s : stages->second) {
        EXPECT_GE(s.ts, req->second[0].ts);
        EXPECT_LE(s.ts + s.dur, req->second[0].ts + req->second[0].dur);
    }
    // Overlapping service spans take two lanes, no more.
    EXPECT_EQ(lanes.at({0, 0}).size(), 2u);
    EXPECT_EQ(lanes.at({0, 1}).size(), 1u);
    EXPECT_EQ(lanes.count({0, 2}), 0u);
    // Every track is named in the export.
    for (const char* name : {"\"ecc\"", "\"client 0\""})
        EXPECT_NE(os.str().find(name), std::string::npos) << name;
}

// ------------------------------------------------------------- CLI flags

TEST(CliOptionsTest, ParseStripsObsFlagsInPlace)
{
    char prog[] = "tool", cmd[] = "run", wl[] = "dbt2";
    char f1[] = "--stats-json", v1[] = "s.json";
    char f2[] = "--trace-out", v2[] = "t.json";
    char f3[] = "--trace-events", v3[] = "1024";
    char* argv[] = {prog, f1, v1, cmd, f2, v2, wl, f3, v3};
    int argc = 9;
    const CliOptions o = CliOptions::parse(argc, argv);
    EXPECT_EQ(o.statsJson, "s.json");
    EXPECT_EQ(o.traceOut, "t.json");
    EXPECT_EQ(o.traceEvents, 1024u);
    EXPECT_TRUE(o.wantStats());
    EXPECT_TRUE(o.wantTrace());
    ASSERT_EQ(argc, 3);
    EXPECT_STREQ(argv[0], "tool");
    EXPECT_STREQ(argv[1], "run");
    EXPECT_STREQ(argv[2], "dbt2");
}

TEST(CliOptionsTest, DefaultsAreOff)
{
    char prog[] = "tool";
    char* argv[] = {prog};
    int argc = 1;
    const CliOptions o = CliOptions::parse(argc, argv);
    EXPECT_FALSE(o.wantStats());
    EXPECT_FALSE(o.wantTrace());
    EXPECT_EQ(o.traceEvents, std::size_t(1) << 16);
    EXPECT_EQ(argc, 1);
}

/** Parse one flag and its value (fatal()s on a bad value). */
CliOptions
parseOne(const char* flag, const char* value)
{
    std::string f = flag, v = value;
    char prog[] = "tool";
    char* argv[] = {prog, f.data(), v.data()};
    int argc = 3;
    return CliOptions::parse(argc, argv);
}

TEST(CliOptionsTest, CountFlagsAcceptTheirFullRange)
{
    EXPECT_EQ(parseOne("--trace-events", "1").traceEvents, 1u);
    EXPECT_EQ(parseOne("--clients", "4294967295").clients, 4294967295u);
    EXPECT_EQ(parseOne("--channels", "65535").channels, 65535u);
}

TEST(CliOptionsDeathTest, CountFlagsParseStrictly)
{
    EXPECT_DEATH(parseOne("--clients", "-1"), "--clients");
    EXPECT_DEATH(parseOne("--clients", "+3"), "--clients");
    EXPECT_DEATH(parseOne("--clients", " 3"), "--clients");
    EXPECT_DEATH(parseOne("--clients", ""), "--clients");
    EXPECT_DEATH(parseOne("--clients", "0"), "--clients");
    EXPECT_DEATH(parseOne("--clients", "4294967296"), "--clients");
    EXPECT_DEATH(parseOne("--trace-events", "12abc"), "--trace-events");
    EXPECT_DEATH(parseOne("--trace-events", "0x10"), "--trace-events");
    EXPECT_DEATH(parseOne("--trace-events",
                          "99999999999999999999999"), "--trace-events");
    EXPECT_DEATH(parseOne("--channels", "65536"), "--channels");
    EXPECT_DEATH(parseOne("--channels", "2.5"), "--channels");
}

// -------------------------------------- Uncorrectable-read accounting

/**
 * The three uncorrectable counters tell one story. The controller
 * counts every decode that exceeded the code strength; the cache
 * splits those into transient overflows its re-read recovered
 * (cache.ecc_retry_reads) and reads that stayed uncorrectable
 * (cache.uncorrectable). The invariant on the retry path:
 *
 *   ecc.uncorrectable_reads ==
 *       cache.uncorrectable + cache.ecc_retry_reads
 *
 * (a recovered retry contributes one controller uncorrectable and one
 * retry; an unrecovered one contributes two controller uncorrectables,
 * one retry and one cache uncorrectable; a persistent-wear failure
 * skips the retry and contributes one of each side).
 */
TEST(UncorrectableAccountingTest, CacheRetrySplitsControllerCount)
{
    WearParams no_wear;
    no_wear.nominalCycles = 1e9;
    CellLifetimeModel m(no_wear);
    FlashGeometry g;
    g.numBlocks = 8;
    g.framesPerBlock = 8;
    FlashDevice dev(g, FlashTiming(), m, 8);
    dev.setSoftErrorRate(1.2e-4); // spikes past even strong codes
    FlashMemoryController ctrl(dev);
    FixedLatencyStore store;
    FlashCacheConfig cfg;
    cfg.initialEccStrength = 10;
    cfg.hotPageMigration = false;
    FlashCache cache(ctrl, store, cfg);

    MetricRegistry reg;
    cache.registerMetrics(reg);
    ctrl.registerMetrics(reg);

    Rng rng(9);
    for (int i = 0; i < 30000; ++i) {
        const Lba l = rng.uniformInt(64);
        if (rng.bernoulli(0.2))
            cache.write(l);
        else
            cache.read(l);
    }

    // The workload actually exercised the retry path.
    EXPECT_GT(reg.value("ecc.uncorrectable_reads"), 0.0);
    EXPECT_GT(reg.value("cache.ecc_retry_reads"), 0.0);
    EXPECT_DOUBLE_EQ(reg.value("ecc.uncorrectable_reads"),
                     reg.value("cache.uncorrectable") +
                         reg.value("cache.ecc_retry_reads"));
    // The registry reads the same storage the stat structs expose.
    EXPECT_EQ(ctrl.stats().uncorrectableReads,
              cache.stats().uncorrectableReads +
                  cache.stats().eccRetryReads);
    cache.checkInvariants();
}

// ----------------------------------------------------------- End-to-end

SystemConfig
smallConfig()
{
    SystemConfig cfg;
    cfg.dramBytes = mib(4);
    cfg.flashBytes = mib(8);
    cfg.seed = 3;
    return cfg;
}

TEST(SystemObsTest, StatsJsonParsesWithStableSchema)
{
    SystemSimulator sim(smallConfig());
    SyntheticConfig wl;
    wl.workingSetPages = 2000;
    auto gen = makeSynthetic(wl);
    sim.run(*gen, 20000);

    std::ostringstream os;
    sim.writeStatsJson(os);
    std::string err;
    const auto v = parseJson(os.str(), &err);
    ASSERT_TRUE(v.has_value()) << err;
    EXPECT_EQ(v->find("schema")->str, "flashcache-stats-v1");
    const JsonValue* m = v->find("metrics");
    ASSERT_NE(m, nullptr);
    EXPECT_DOUBLE_EQ(m->find("system.requests")->number, 20000.0);
    // Every layer contributes; spot-check one name per prefix.
    for (const char* key :
         {"system.request_latency", "pdc.read_hit_rate",
          "dram.read_busy", "disk.accesses", "flash.reads",
          "cache.read_hit_rate", "cache.write_amplification",
          "controller.reads", "ecc.corrected_read_rate",
          "power.total"}) {
        EXPECT_NE(m->find(key), nullptr) << key;
    }
    // Key order is exactly registration order: system.* leads.
    const auto keys = m->keys();
    ASSERT_GT(keys.size(), 4u);
    EXPECT_EQ(keys[0], "system.requests");

    // Re-export: byte-identical (the schema is deterministic).
    std::ostringstream os2;
    sim.writeStatsJson(os2);
    EXPECT_EQ(os.str(), os2.str());
}

/** Financial1 with the disk the bottleneck: 8 clients queue for it
 *  while GC and write-backs run as background ops. */
SystemConfig
diskBoundConfig()
{
    SystemConfig cfg;
    cfg.dramBytes = mib(4);
    cfg.flashBytes = mib(8);
    cfg.seed = 11;
    cfg.computeTime = milliseconds(1.5);
    cfg.clients = 8;
    return cfg;
}

/** Run diskBoundConfig(), traced into a ring that drops nothing. */
void
runDiskBound(SystemSimulator& sim, bool traced)
{
    if (traced)
        sim.enableTracing(1u << 18);
    auto gen = makeMacro(macroConfig("Financial1", 0.02));
    sim.run(*gen, 6000);
    if (traced) {
        ASSERT_EQ(sim.tracer()->dropped(), 0u);
    }
}

TEST(SystemObsTest, EndToEndTraceValidates)
{
    SystemSimulator sim(diskBoundConfig());
    runDiskBound(sim, true);
    std::ostringstream os;
    sim.tracer()->exportChromeTrace(os);
    expectValidChromeTrace(os.str());
    // One track per flash channel, disk, ECC, DRAM and client.
    const std::string s = os.str();
    for (const char* name :
         {"\"flash ch0\"", "\"flash ch3\"", "\"disk\"", "\"ecc\"",
          "\"dram\"", "\"client 0\"", "\"client 7\""}) {
        EXPECT_NE(s.find(name), std::string::npos) << name;
    }
}

TEST(SystemObsTest, ServiceSpansSumToSchedulerBusy)
{
    SystemSimulator sim(diskBoundConfig());
    runDiskBound(sim, true);
    // Tracks below the first client's are resources; their spans are
    // named by group, one per op served (foreground or background).
    const std::uint32_t resources =
        sim.scheduler().config().flashChannels + 3;
    std::map<std::string, double> busy;
    std::map<std::string, std::uint64_t> ops;
    for (const TraceEvent& ev : sim.tracer()->events()) {
        if (ev.track < resources) {
            busy[ev.name] += ev.dur;
            ++ops[ev.name];
        }
    }
    const MetricRegistry& m = sim.metrics();
    EXPECT_GT(m.value("sched.disk.utilization"), 0.9);
    EXPECT_GT(m.value("sched.bg_jobs"), 0.0);
    for (const std::string g : {"flash", "disk", "ecc", "dram"}) {
        const double want = m.value("sched." + g + ".busy");
        ASSERT_GT(want, 0.0) << g;
        EXPECT_LE(std::abs(busy[g] - want), 1e-9 * want)
            << g << ": spans " << busy[g] << " vs busy " << want;
        EXPECT_EQ(static_cast<double>(ops[g]),
                  m.value("sched." + g + ".served"))
            << g;
    }
}

TEST(SystemObsTest, TraceShowsQueueingAndDisjointRequests)
{
    SystemSimulator sim(diskBoundConfig());
    runDiskBound(sim, true);
    std::ostringstream os;
    sim.tracer()->exportChromeTrace(os);
    const Lanes lanes = expectValidChromeTrace(os.str());

    const int firstClient =
        static_cast<int>(sim.scheduler().config().flashChannels + 3);
    std::uint64_t waits = 0;
    std::uint64_t requests = 0;
    std::map<int, std::vector<Span>> requestsOf;
    for (const auto& [lane, spans] : lanes) {
        for (const Span& s : spans) {
            if (s.cat == "wait") {
                EXPECT_GE(lane.first, firstClient);
                EXPECT_GT(s.dur, 0.0);
                ++waits;
            }
            if (s.name == "request") {
                requestsOf[lane.first].push_back(s);
                ++requests;
            }
        }
    }
    // Eight clients on one disk must queue.
    EXPECT_GT(waits, 0u);
    EXPECT_EQ(requests, 6000u);
    EXPECT_EQ(requestsOf.size(), 8u);
    constexpr double kEps = 1e-6; // µs
    for (auto& [client, reqs] : requestsOf) {
        std::sort(reqs.begin(), reqs.end(),
                  [](const Span& a, const Span& b) { return a.ts < b.ts; });
        for (std::size_t i = 1; i < reqs.size(); ++i) {
            EXPECT_GE(reqs[i].ts, reqs[i - 1].ts + reqs[i - 1].dur - kEps)
                << "client track " << client << " request " << i;
        }
    }
}

TEST(SystemObsTest, TracingLeavesResultsUnchanged)
{
    SystemSimulator plain(diskBoundConfig());
    runDiskBound(plain, false);
    SystemSimulator traced(diskBoundConfig());
    runDiskBound(traced, true);
    EXPECT_GT(traced.tracer()->recorded(), 0u);
    std::ostringstream a, b;
    plain.writeStatsJson(a);
    traced.writeStatsJson(b);
    EXPECT_EQ(a.str(), b.str());
}

} // namespace
} // namespace obs
} // namespace flashcache
