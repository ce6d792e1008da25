/**
 * @file
 * Differential test of the event engine: sched::ClosedLoop (a sorted
 * event list, one issue event per request plus exact inline
 * continuations) against the heap-only engine it replaced
 * (sched_oracle.hh), on seeded scripts built to tie. Times are whole
 * microseconds, zero compute and zero service included, so many
 * events land on the same instant and the tie-break decides the
 * order. The oracle breaks ties by an explicit insertion sequence
 * number; ClosedLoop has none and must get the same order from where
 * it inserts. The golden system hash does not catch a wrong tie
 * order, so this test is the check. Runs at 64 clients keep dozens of
 * events pending, so the insert's binary search runs deep. Every
 * done() call, the wall clock and every per-group statistic must
 * match bit for bit.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "sched/demand.hh"
#include "sched/scheduler.hh"
#include "sched_oracle.hh"
#include "util/rng.hh"

namespace flashcache {
namespace sched {
namespace {

struct Request
{
    Seconds compute;
    std::vector<Demand> demands;
};

struct ScriptShape
{
    std::uint64_t requests;
    std::uint64_t maxCompute_us; ///< compute drawn from 0..max
    std::uint64_t maxService_us; ///< service drawn from 0..max
    std::uint64_t maxDemands;    ///< demand count drawn from 0..max
    double bgFraction;
};

/** A whole number of microseconds drawn from 0..max. */
Seconds
micros(Rng& rng, std::uint64_t max)
{
    return 1e-6 * static_cast<double>(rng.uniformInt(max + 1));
}

std::vector<Request>
makeScript(std::uint64_t seed, const ScriptShape& shape)
{
    Rng rng(seed);
    std::vector<Request> script(shape.requests);
    for (Request& req : script) {
        req.compute = micros(rng, shape.maxCompute_us);
        const std::uint64_t n = rng.uniformInt(shape.maxDemands + 1);
        for (std::uint64_t d = 0; d < n; ++d) {
            req.demands.push_back(
                {static_cast<ResourceKind>(rng.uniformInt(4)),
                 static_cast<std::uint16_t>(rng.uniformInt(8)),
                 micros(rng, shape.maxService_us),
                 rng.bernoulli(shape.bgFraction)});
        }
    }
    return script;
}

/** Everything observable about one engine's runs, as raw bits. */
struct Outcome
{
    std::vector<std::uint64_t> done; ///< (compute, issue, completion)*
    std::vector<std::uint64_t> stats;

    void add(double v) { stats.push_back(std::bit_cast<std::uint64_t>(v)); }
};

template <typename Engine>
Outcome
play(const SchedConfig& cfg, const std::vector<Request>& script,
     std::size_t runs)
{
    DemandSink sink;
    Engine loop(cfg);
    Outcome out;
    std::size_t next = 0;
    // Each run() drains a slice of the script; later runs continue the
    // same timeline, as a warm restart does.
    for (std::size_t run = 1; run <= runs; ++run) {
        const std::size_t end = script.size() * run / runs;
        loop.run(
            oracle::sinkSource(sink, [&](Seconds& compute) {
                if (next >= end)
                    return false;
                const Request& req = script[next++];
                compute = req.compute;
                for (const Demand& d : req.demands) {
                    if (d.background)
                        sink.pushBackground();
                    sink.record(d.kind, d.channel, d.service);
                    if (d.background)
                        sink.popBackground();
                }
                return true;
            }),
            [&](Seconds compute, Seconds issue, Seconds completion) {
                for (const Seconds v : {compute, issue, completion})
                    out.done.push_back(std::bit_cast<std::uint64_t>(v));
            });
        out.add(loop.wallClock());
        out.add(static_cast<double>(loop.requestsCompleted()));
    }
    for (const Group g :
         {Group::Flash, Group::Disk, Group::Ecc, Group::Dram}) {
        out.add(loop.busySeconds(g));
        out.add(loop.utilization(g));
        out.add(static_cast<double>(loop.served(g)));
        out.add(static_cast<double>(loop.backgroundServed(g)));
        out.add(loop.meanQueueDepth(g));
        out.add(static_cast<double>(loop.maxQueueDepth(g)));
        for (const double p : {0.50, 0.95, 0.99})
            out.add(loop.sojournPercentile(g, p));
    }
    return out;
}

void
expectSameOutcome(const SchedConfig& cfg, const ScriptShape& shape,
                  std::uint64_t seed)
{
    const std::vector<Request> script = makeScript(seed, shape);
    const Outcome want = play<oracle::HeapOnlyLoop>(cfg, script, 2);
    const Outcome got = play<ClosedLoop>(cfg, script, 2);
    const std::string where = "seed " + std::to_string(seed) +
        ", clients " + std::to_string(cfg.clients);
    ASSERT_EQ(want.done.size(), 3 * shape.requests) << where;
    ASSERT_EQ(got.done.size(), want.done.size()) << where;
    for (std::size_t i = 0; i < want.done.size(); ++i)
        ASSERT_EQ(got.done[i], want.done[i])
            << where << ", done() call " << i / 3 << " field " << i % 3;
    ASSERT_EQ(got.stats.size(), want.stats.size());
    for (std::size_t i = 0; i < want.stats.size(); ++i)
        EXPECT_EQ(got.stats[i], want.stats[i]) << where << ", stat " << i;
}

SchedConfig
multiServer(std::uint32_t clients)
{
    SchedConfig cfg;
    cfg.clients = clients;
    cfg.flashChannels = 3;
    cfg.eccUnits = 2;
    cfg.dramPorts = 3;
    return cfg;
}

TEST(SchedDifferentialTest, TieHeavyScriptsMatchTheHeapOnlyEngine)
{
    // Short times on a 0..3 us grid: most events share an instant.
    const ScriptShape tight{400, 3, 3, 4, 0.3};
    for (const std::uint32_t clients : {1u, 5u, 64u}) {
        for (std::uint64_t seed = 1; seed <= 20; ++seed)
            expectSameOutcome(multiServer(clients), tight, seed);
    }
}

TEST(SchedDifferentialTest, LongQueuesAndBackgroundBatchesMatch)
{
    // Wider grids and long background batches keep queues deep, so
    // completions reach busy servers and background yields.
    const ScriptShape deep{300, 20, 50, 12, 0.5};
    for (const std::uint32_t clients : {1u, 5u, 64u}) {
        for (std::uint64_t seed = 100; seed < 110; ++seed)
            expectSameOutcome(multiServer(clients), deep, seed);
    }
}

TEST(SchedDifferentialTest, ZeroStageAndBackgroundOnlyRequestsMatch)
{
    // Mostly zero-stage and background-only requests: the issue event
    // must hand the client straight to its next draw.
    const ScriptShape sparse{400, 2, 4, 2, 0.8};
    SchedConfig one;
    one.clients = 1;
    one.flashChannels = 1;
    one.eccUnits = 1;
    one.dramPorts = 1;
    for (std::uint64_t seed = 200; seed < 210; ++seed) {
        expectSameOutcome(one, sparse, seed);
        expectSameOutcome(multiServer(5), sparse, seed);
    }
}

} // namespace
} // namespace sched
} // namespace flashcache
