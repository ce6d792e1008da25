/**
 * @file
 * Event-scheduler tests: exact virtual-time ordering on scripted
 * demand chains, background two-level scheduling, determinism,
 * queue/utilization invariants under seeded multi-client fuzz,
 * flash-channel scaling of a flash-bound system run, the identity
 * between the scheduler's per-group busy time and the device models'
 * own busy counters, and the fatal configuration checks.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "sched/demand.hh"
#include "sched/scheduler.hh"
#include "sched_oracle.hh"
#include "sim/system_sim.hh"
#include "util/rng.hh"
#include "workload/macro.hh"
#include "workload/synthetic.hh"

namespace flashcache {
namespace sched {
namespace {

using Completion = std::tuple<Seconds, Seconds, Seconds>;

TEST(ClosedLoopTest, TwoClientsShareOneDiskExactTimes)
{
    SchedConfig cfg;
    cfg.clients = 2;
    cfg.flashChannels = 1;
    cfg.eccUnits = 1;
    cfg.dramPorts = 1;
    DemandSink sink;
    ClosedLoop loop(cfg);

    int issued = 0;
    const auto source = oracle::sinkSource(sink, [&](Seconds& compute) {
        if (issued >= 2)
            return false;
        ++issued;
        compute = 0.001;
        sink.record(ResourceKind::Disk, 0, 0.002);
        return true;
    });
    std::vector<Completion> done;
    loop.run(source, [&](Seconds c, Seconds i, Seconds t) {
        done.push_back({c, i, t});
    });

    // Both clients issue at 1 ms; the single disk serves them back to
    // back: completions at 3 ms and 5 ms, the second one having
    // queued for 2 ms.
    ASSERT_EQ(done.size(), 2u);
    EXPECT_DOUBLE_EQ(std::get<0>(done[0]), 0.001);
    EXPECT_DOUBLE_EQ(std::get<1>(done[0]), 0.001);
    EXPECT_DOUBLE_EQ(std::get<2>(done[0]), 0.003);
    EXPECT_DOUBLE_EQ(std::get<2>(done[1]), 0.005);
    EXPECT_DOUBLE_EQ(loop.wallClock(), 0.005);
    EXPECT_EQ(loop.requestsCompleted(), 2u);
    EXPECT_DOUBLE_EQ(loop.busySeconds(Group::Disk), 0.004);
    EXPECT_DOUBLE_EQ(loop.utilization(Group::Disk), 0.8);
    EXPECT_EQ(loop.maxQueueDepth(Group::Disk), 1u);
    EXPECT_EQ(loop.served(Group::Disk), 2u);
    EXPECT_EQ(loop.backgroundServed(Group::Disk), 0u);
}

TEST(ClosedLoopTest, OneClientWalksStagesSerially)
{
    SchedConfig cfg;
    cfg.clients = 1;
    cfg.flashChannels = 2;
    DemandSink sink;
    ClosedLoop loop(cfg);

    // Three requests over every resource class; with one client there
    // is never contention, so the wall clock is the plain serial sum.
    struct Req
    {
        Seconds compute;
        std::vector<Demand> demands;
    };
    const std::vector<Req> script = {
        {100e-6,
         {{ResourceKind::FlashChannel, 0, 50e-6, false},
          {ResourceKind::Ecc, 0, 10e-6, false}}},
        {200e-6, {{ResourceKind::Disk, 0, 4200e-6, false}}},
        {50e-6,
         {{ResourceKind::DramPort, 0, 1e-6, false},
          {ResourceKind::FlashChannel, 1, 60e-6, false}}},
    };
    std::size_t next = 0;
    const auto source = oracle::sinkSource(sink, [&](Seconds& compute) {
        if (next >= script.size())
            return false;
        compute = script[next].compute;
        for (const Demand& d : script[next].demands)
            sink.record(d.kind, d.channel, d.service);
        ++next;
        return true;
    });
    Seconds expected = 0;
    for (const Req& r : script) {
        expected += r.compute;
        for (const Demand& d : r.demands)
            expected += d.service;
    }
    loop.run(source, [](Seconds, Seconds, Seconds) {});
    EXPECT_DOUBLE_EQ(loop.wallClock(), expected);
    EXPECT_EQ(loop.requestsCompleted(), 3u);
    EXPECT_GT(loop.utilization(Group::Disk), 0.0);
    EXPECT_GT(loop.busySeconds(Group::Flash), 0.0);
}

TEST(ClosedLoopTest, ComputeOnlyRequestCompletesAtIssue)
{
    SchedConfig cfg;
    cfg.clients = 1;
    DemandSink sink;
    ClosedLoop loop(cfg);
    int issued = 0;
    const auto source = oracle::sinkSource(sink, [&](Seconds& compute) {
        if (issued >= 2)
            return false;
        compute = issued == 0 ? 0.001 : 0.002;
        ++issued;
        return true; // PDC hit served above the device models
    });
    std::vector<Completion> done;
    loop.run(source, [&](Seconds c, Seconds i, Seconds t) {
        done.push_back({c, i, t});
    });
    ASSERT_EQ(done.size(), 2u);
    EXPECT_DOUBLE_EQ(std::get<1>(done[0]), std::get<2>(done[0]));
    EXPECT_DOUBLE_EQ(std::get<2>(done[1]), 0.003);
    EXPECT_DOUBLE_EQ(loop.wallClock(), 0.003);
}

TEST(ClosedLoopTest, UnvisitedGroupSojournIsZero)
{
    // Compute-only requests visit no device: every group's sojourn
    // histogram stays empty and its percentiles read 0.
    SchedConfig cfg;
    cfg.clients = 1;
    DemandSink sink;
    ClosedLoop loop(cfg);
    int issued = 0;
    const auto source = oracle::sinkSource(sink, [&](Seconds& compute) {
        compute = 0.001;
        return issued++ < 3;
    });
    loop.run(source, [](Seconds, Seconds, Seconds) {});
    for (const Group g : {Group::Flash, Group::Disk, Group::Ecc, Group::Dram}) {
        EXPECT_EQ(loop.served(g), 0u);
        EXPECT_EQ(loop.sojournPercentile(g, 0.0), 0.0);
        EXPECT_EQ(loop.sojournPercentile(g, 0.5), 0.0);
        EXPECT_EQ(loop.sojournPercentile(g, 1.0), 0.0);
    }
}

TEST(ClosedLoopTest, BackgroundFillsIdleTimeAndExtendsTheWall)
{
    SchedConfig cfg;
    cfg.clients = 1;
    DemandSink sink;
    ClosedLoop loop(cfg);

    // Request 1 is compute-only but kicks off a 5 ms background disk
    // write-back; request 2 needs the disk in the foreground and must
    // wait behind the non-preemptible background op.
    int issued = 0;
    const auto source = oracle::sinkSource(sink, [&](Seconds& compute) {
        if (issued == 0) {
            compute = 0.001;
            sink.pushBackground();
            sink.record(ResourceKind::Disk, 0, 0.005);
            sink.popBackground();
        } else if (issued == 1) {
            compute = 0.001;
            sink.record(ResourceKind::Disk, 0, 0.001);
        } else {
            return false;
        }
        ++issued;
        return true;
    });
    std::vector<Completion> done;
    loop.run(source, [&](Seconds c, Seconds i, Seconds t) {
        done.push_back({c, i, t});
    });

    // t=1ms: bg starts (disk idle). Request 2 issues at 2 ms, waits
    // until 6 ms, served 6..7 ms. The wall includes the bg runoff.
    ASSERT_EQ(done.size(), 2u);
    EXPECT_DOUBLE_EQ(std::get<2>(done[0]), 0.001);
    EXPECT_DOUBLE_EQ(std::get<1>(done[1]), 0.002);
    EXPECT_DOUBLE_EQ(std::get<2>(done[1]), 0.007);
    EXPECT_DOUBLE_EQ(loop.wallClock(), 0.007);
    EXPECT_EQ(loop.backgroundServed(Group::Disk), 1u);
    EXPECT_DOUBLE_EQ(loop.busySeconds(Group::Disk), 0.006);
}

TEST(ClosedLoopTest, FreedServerPrefersForegroundOverQueuedBackground)
{
    SchedConfig cfg;
    cfg.clients = 1;
    DemandSink sink;
    ClosedLoop loop(cfg);

    // One request records two 5 ms background ops and a 2 ms
    // foreground stage. The first bg op reaches the idle disk first
    // (same timestamp, earlier submission); when it finishes at 6 ms
    // the foreground stage must be taken before the second bg op.
    int issued = 0;
    const auto source = oracle::sinkSource(sink, [&](Seconds& compute) {
        if (issued >= 1)
            return false;
        ++issued;
        compute = 0.001;
        sink.pushBackground();
        sink.record(ResourceKind::Disk, 0, 0.005);
        sink.popBackground();
        sink.record(ResourceKind::Disk, 0, 0.002);
        sink.pushBackground();
        sink.record(ResourceKind::Disk, 0, 0.005);
        sink.popBackground();
        return true;
    });
    std::vector<Completion> done;
    loop.run(source, [&](Seconds c, Seconds i, Seconds t) {
        done.push_back({c, i, t});
    });

    // fg: arrives 1 ms, waits for bg#1 (1..6 ms), served 6..8 ms.
    // bg#2: queued since 1 ms, only starts after the fg at 8..13 ms.
    ASSERT_EQ(done.size(), 1u);
    EXPECT_DOUBLE_EQ(std::get<2>(done[0]), 0.008);
    EXPECT_DOUBLE_EQ(loop.wallClock(), 0.013);
    EXPECT_EQ(loop.backgroundServed(Group::Disk), 2u);
    EXPECT_EQ(loop.served(Group::Disk), 3u);
    EXPECT_EQ(loop.maxQueueDepth(Group::Disk), 2u);
}

TEST(ClosedLoopTest, ScriptedChannelScaling)
{
    // 400 flash ops of 100 us round-robined over 4 channel indices:
    // one channel serializes them, four channels overlap them.
    const auto runWith = [](std::uint32_t channels) {
        SchedConfig cfg;
        cfg.clients = 8;
        cfg.flashChannels = channels;
        DemandSink sink;
        ClosedLoop loop(cfg);
        int issued = 0;
        const auto source = oracle::sinkSource(sink, [&](Seconds& compute) {
            if (issued >= 400)
                return false;
            compute = 0;
            sink.record(ResourceKind::FlashChannel,
                        static_cast<std::uint16_t>(issued % 4), 100e-6);
            ++issued;
            return true;
        });
        loop.run(source, [](Seconds, Seconds, Seconds) {});
        return loop.wallClock();
    };
    const Seconds wall1 = runWith(1);
    const Seconds wall4 = runWith(4);
    EXPECT_NEAR(wall1, 400 * 100e-6, 1e-9); // fully serialized
    EXPECT_GE(wall4, 100 * 100e-6 - 1e-9);  // 100 ops per channel
    EXPECT_GE(wall1 / wall4, 3.0);
}

SchedConfig
withZero(std::uint32_t SchedConfig::*field)
{
    SchedConfig cfg;
    cfg.*field = 0;
    return cfg;
}

// Release builds drop asserts: a zero flash-channel count would divide
// by zero in resourceOf and zero DRAM ports would strand every request
// that touches DRAM, so each is a configuration error.
TEST(ClosedLoopDeathTest, ZeroClientsIsFatal)
{
    EXPECT_DEATH((ClosedLoop{withZero(&SchedConfig::clients)}),
                 "clients must be positive");
}

TEST(ClosedLoopDeathTest, ZeroFlashChannelsIsFatal)
{
    EXPECT_DEATH((ClosedLoop{withZero(&SchedConfig::flashChannels)}),
        "flashChannels must be positive");
}

TEST(ClosedLoopDeathTest, ZeroDramPortsIsFatal)
{
    EXPECT_DEATH((ClosedLoop{withZero(&SchedConfig::dramPorts)}),
                 "dramPorts must be positive");
}

/** Seeded random closed-loop run; returns a full result fingerprint. */
struct FuzzResult
{
    Seconds wall = 0;
    std::vector<Completion> completions;
    Seconds busy[4] = {0, 0, 0, 0};
    std::uint64_t served[4] = {0, 0, 0, 0};

    bool
    operator==(const FuzzResult& o) const
    {
        if (wall != o.wall || completions != o.completions)
            return false;
        for (int g = 0; g < 4; ++g) {
            if (busy[g] != o.busy[g] || served[g] != o.served[g])
                return false;
        }
        return true;
    }
};

FuzzResult
fuzzRun(std::uint64_t seed, std::uint64_t requests)
{
    SchedConfig cfg;
    cfg.clients = 5;
    cfg.flashChannels = 3;
    cfg.eccUnits = 2;
    cfg.dramPorts = 2;
    DemandSink sink;
    ClosedLoop loop(cfg);
    Rng rng(seed);
    std::uint64_t issued = 0;
    std::uint64_t demands = 0;
    const auto source = oracle::sinkSource(sink, [&](Seconds& compute) {
        if (issued >= requests)
            return false;
        ++issued;
        compute = rng.uniform(0.0, 100e-6);
        const std::uint64_t n = rng.uniformInt(5);
        for (std::uint64_t d = 0; d < n; ++d) {
            const bool bg = rng.bernoulli(0.3);
            if (bg)
                sink.pushBackground();
            const auto kind =
                static_cast<ResourceKind>(rng.uniformInt(4));
            sink.record(kind,
                        static_cast<std::uint16_t>(rng.uniformInt(8)),
                        rng.uniform(1e-6, 200e-6));
            if (bg)
                sink.popBackground();
            ++demands;
        }
        return true;
    });
    FuzzResult res;
    loop.run(source, [&](Seconds c, Seconds i, Seconds t) {
        res.completions.push_back({c, i, t});
    });
    res.wall = loop.wallClock();
    const Group groups[4] = {Group::Flash, Group::Disk, Group::Ecc,
                             Group::Dram};
    for (int g = 0; g < 4; ++g) {
        res.busy[g] = loop.busySeconds(groups[g]);
        res.served[g] = loop.served(groups[g]);
    }
    (void)demands;
    return res;
}

TEST(ClosedLoopTest, SeededFuzzIsBitDeterministic)
{
    for (std::uint64_t seed : {1ull, 42ull, 977ull}) {
        const FuzzResult a = fuzzRun(seed, 300);
        const FuzzResult b = fuzzRun(seed, 300);
        EXPECT_TRUE(a == b) << "seed " << seed;
        EXPECT_EQ(a.completions.size(), 300u);
    }
}

TEST(ClosedLoopTest, FuzzInvariantsHold)
{
    SchedConfig cfg;
    cfg.clients = 5;
    cfg.flashChannels = 3;
    cfg.eccUnits = 2;
    cfg.dramPorts = 2;
    DemandSink sink;
    ClosedLoop loop(cfg);
    Rng rng(2026);
    std::uint64_t issued = 0;
    std::uint64_t byGroup[4] = {0, 0, 0, 0};
    const auto source = oracle::sinkSource(sink, [&](Seconds& compute) {
        if (issued >= 1000)
            return false;
        ++issued;
        compute = rng.uniform(0.0, 50e-6);
        const std::uint64_t n = rng.uniformInt(4);
        for (std::uint64_t d = 0; d < n; ++d) {
            const bool bg = rng.bernoulli(0.25);
            if (bg)
                sink.pushBackground();
            const std::uint64_t kind = rng.uniformInt(4);
            sink.record(static_cast<ResourceKind>(kind),
                        static_cast<std::uint16_t>(rng.uniformInt(6)),
                        rng.uniform(1e-6, 300e-6));
            if (bg)
                sink.popBackground();
            ++byGroup[kind];
        }
        return true;
    });
    Seconds last_completion = 0;
    loop.run(source, [&](Seconds, Seconds issue, Seconds t) {
        EXPECT_GE(t, issue);
        last_completion = std::max(last_completion, t);
    });

    EXPECT_EQ(loop.requestsCompleted(), 1000u);
    EXPECT_GE(loop.wallClock(), last_completion);
    const struct
    {
        Group g;
        std::uint64_t servers;
    } groups[4] = {{Group::Flash, 3},
                   {Group::Disk, 1},
                   {Group::Ecc, 2},
                   {Group::Dram, 2}};
    for (int g = 0; g < 4; ++g) {
        // Every submitted demand was served exactly once.
        EXPECT_EQ(loop.served(groups[g].g), byGroup[g]);
        // No server group can exceed full utilization, and the wall
        // clock must cover each group's per-server busy share.
        EXPECT_LE(loop.utilization(groups[g].g), 1.0 + 1e-9);
        EXPECT_GE(loop.wallClock() + 1e-9,
                  loop.busySeconds(groups[g].g) /
                      static_cast<double>(groups[g].servers));
        // Percentiles are monotone.
        const double p50 = loop.sojournPercentile(groups[g].g, 0.50);
        const double p95 = loop.sojournPercentile(groups[g].g, 0.95);
        const double p99 = loop.sojournPercentile(groups[g].g, 0.99);
        EXPECT_LE(p50, p95 + 1e-12);
        EXPECT_LE(p95, p99 + 1e-12);
    }
}

TEST(SystemSchedTest, SchedulerBusyMatchesDeviceBusy)
{
    // Every busy-time accumulation in the device models is paired
    // with exactly one DemandSink::record, and the scheduler serves
    // every recorded demand once, so each group's server-seconds equal
    // the owning model's busy counter whatever the client count.
    struct Shape
    {
        const char* macro;
        double scale;
        std::uint64_t dramMib;
        std::uint64_t flashMib;
        std::uint64_t requests;
        bool writeHeavy; ///< GC and write-back batches must run
    };
    // dbt2 is PDC-hit dominated. Financial1 is write-heavy on a small
    // flash, so GC relocations and PDC flushes put large background
    // batches into single requests. The longer Financial1 run is where
    // busy time integrated as busyServers * dt on the absolute clock
    // drifted from the summed service by more than 1e-9 relative
    // (DRAM: 0.041399999853 vs 0.041400000000 s with one client).
    static constexpr Shape kShapes[] = {
        {"dbt2", 0.05, 32, 64, 20000, false},
        {"Financial1", 0.02, 4, 4, 40000, true},
        {"Financial1", 0.1, 4, 8, 60000, true},
    };
    for (const Shape& shape : kShapes) {
        for (const unsigned clients : {1u, 8u}) {
            SystemConfig cfg;
            cfg.dramBytes = mib(shape.dramMib);
            cfg.flashBytes = mib(shape.flashMib);
            cfg.computeTime = milliseconds(1.5);
            cfg.clients = clients;
            cfg.seed = 13;
            SystemSimulator sim(cfg);
            auto gen = makeMacro(macroConfig(shape.macro, shape.scale));
            sim.run(*gen, shape.requests);

            const obs::MetricRegistry& m = sim.metrics();
            const std::string where = std::string(shape.macro) +
                ", clients " + std::to_string(clients);
            if (shape.writeHeavy) {
                ASSERT_GT(m.value("cache.gc_runs"), 0.0) << where;
                ASSERT_GT(m.value("sched.bg_jobs"), 0.0) << where;
            }
            const auto expectSame = [&](const char* what, double sched,
                                        double device) {
                ASSERT_GT(device, 0.0) << what << ", " << where;
                EXPECT_LE(std::abs(sched - device), 1e-9 * device)
                    << what << ", " << where << ": sched " << sched
                    << " vs device " << device;
            };
            expectSame("disk", m.value("sched.disk.busy"),
                       sim.disk().busyTime());
            expectSame("dram", m.value("sched.dram.busy"),
                       sim.dram().readBusyTime() +
                           sim.dram().writeBusyTime());
            expectSame("flash", m.value("sched.flash.busy"),
                       m.value("flash.busy"));
            expectSame("ecc", m.value("sched.ecc.busy"),
                       m.value("ecc.busy"));
        }
    }
}

/** Virtual throughput of the measured phase of a flash-bound run. */
double
flashBoundThroughput(unsigned channels, std::uint64_t requests)
{
    SystemConfig cfg;
    cfg.dramBytes = mib(8);    // small PDC: most reads fall through
    cfg.flashBytes = mib(128); // ample headroom: no region churn
    cfg.computeTime = microseconds(5); // storage-bound on purpose
    cfg.clients = 16;
    cfg.flashChannels = channels;
    cfg.seed = 99;
    SystemSimulator sim(cfg);
    // Uniform popularity over a ~30 MB footprint that fits in flash
    // but not in the PDC: once the warm-up has done the compulsory
    // disk fills, reads stream from flash. (A Zipf workload would
    // keep a cold first-touch tail trickling 4 ms disk fills.)
    SyntheticConfig wl;
    wl.name = "sched-uniform";
    wl.shape = TailShape::Uniform;
    wl.workingSetPages = 12000;
    wl.writeFraction = 0.02; // read-mostly: no write-back churn
    auto gen = makeSynthetic(wl);
    sim.run(*gen, requests / 2);
    const Seconds warmWall = sim.stats().wallClock;
    const std::uint64_t warmReqs = sim.stats().requests;
    sim.run(*gen, requests);
    return static_cast<double>(sim.stats().requests - warmReqs) /
        (sim.stats().wallClock - warmWall);
}

TEST(SystemSchedTest, FourChannelsAtLeastDoubleFlashBoundThroughput)
{
    // The functional request stream is identical for both runs; only
    // the demand replay changes, so the ratio isolates the overlap of
    // operations on different flash channels.
    constexpr std::uint64_t kRequests = 150000;
    const double one = flashBoundThroughput(1, kRequests);
    const double four = flashBoundThroughput(4, kRequests);
    const double ratio = four / one;
    std::printf("4-channel / 1-channel throughput: %.2fx\n", ratio);
    EXPECT_GE(ratio, 2.0);
}

TEST(SystemSchedTest, MoreClientsOverlapTheWall)
{
    const auto wallWith = [](unsigned clients) {
        SystemConfig cfg;
        cfg.dramBytes = mib(16);
        cfg.flashBytes = mib(32);
        cfg.computeTime = milliseconds(4.0);
        cfg.clients = clients;
        cfg.seed = 5;
        SystemSimulator sim(cfg);
        auto gen = makeMacro(macroConfig("dbt2", 0.02));
        sim.run(*gen, 20000);
        return sim.stats().wallClock;
    };
    // Compute dominates this configuration, so doubling the client
    // count should nearly halve the wall clock.
    const Seconds w4 = wallWith(4);
    const Seconds w8 = wallWith(8);
    EXPECT_LT(w8, w4);
    EXPECT_GT(w4 / w8, 1.5);
}

TEST(SystemSchedTest, SchedMetricsAppearInStatsJson)
{
    SystemConfig cfg;
    cfg.dramBytes = mib(16);
    cfg.flashBytes = mib(32);
    cfg.seed = 3;
    SystemSimulator sim(cfg);
    auto gen = makeMacro(macroConfig("dbt2", 0.02));
    sim.run(*gen, 5000);
    std::ostringstream os;
    sim.writeStatsJson(os);
    const std::string json = os.str();
    EXPECT_NE(json.find("\"sched.clients\""), std::string::npos);
    EXPECT_NE(json.find("\"sched.flash.sojourn_p99\""),
              std::string::npos);
    EXPECT_NE(json.find("\"sched.disk.utilization\""),
              std::string::npos);
    EXPECT_GT(sim.stats().wallClock, 0.0);
}

} // namespace
} // namespace sched
} // namespace flashcache
