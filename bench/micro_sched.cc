/**
 * @file
 * google-benchmark microbenchmark for the virtual-time event engine
 * (sched::ClosedLoop) alone, on a scripted Financial1-shaped source:
 * closed-loop clients, each request one foreground DRAM stage plus
 * on average one background disk op, with the disk held near
 * saturation as in the write-heavy Table 4 trace. No device model
 * runs, so the reported time_per_req is the engine's own cost per
 * simulated request. BM_ClosedLoopClients runs it at 1 to 1,024
 * clients, with each request's disk time scaled by 8 / clients so
 * the disk stays as busy; 8 clients is the Financial1 shape. The
 * sweep times the sorted event list at lengths from a few to about a
 * thousand pending events, where each insert's shift grows with the
 * length. BM_Financial1Draws times SystemSimulator's draw stage
 * alone: the Financial1 workload draw plus the compute draw, per
 * request. The pipeline runs at about the slowest stage's cost (the
 * model stage's is not timed here). End-to-end host cost is measured
 * by `python3 perfbench/run.py`.
 */

#include <benchmark/benchmark.h>

#include <cstdint>
#include <span>
#include <vector>

#include "sched/demand.hh"
#include "sched/scheduler.hh"
#include "util/rng.hh"
#include "workload/macro.hh"

using namespace flashcache;

namespace {

constexpr std::uint32_t kClients = 8; ///< the Financial1 shape's
constexpr Seconds kCompute = 1.5e-3;
constexpr Seconds kDramService = 1e-6;
/** Mean per-request offered disk time: 95% of the disk's capacity
 *  at kClients clients' request rate, so its queue stays busy but
 *  bounded. */
constexpr Seconds kDiskPerRequest = 0.95 * kCompute / kClients;

struct Request
{
    Seconds compute;
    std::uint32_t bgOps; ///< 0, 1 or 2 background disk ops
    Seconds bgService;
};

/** A fixed ring of jittered requests, replayed in order. */
std::vector<Request>
makeScript(std::size_t n)
{
    Rng rng(7);
    std::vector<Request> script(n);
    for (Request& r : script) {
        r.compute = kCompute * rng.uniform(0.5, 1.5);
        r.bgOps = static_cast<std::uint32_t>(rng.uniformInt(3));
        r.bgService = kDiskPerRequest * rng.uniform(0.5, 1.5);
    }
    return script;
}

void
BM_ClosedLoopClients(benchmark::State& state)
{
    const auto clients = static_cast<std::uint32_t>(state.range(0));
    constexpr std::uint64_t requests = 100000;
    const std::vector<Request> script = makeScript(4096);
    // The disk time per request that keeps the disk ~95% busy falls
    // as the clients' request rate grows.
    const double diskScale = static_cast<double>(kClients) / clients;
    sched::SchedConfig cfg;
    cfg.clients = clients;
    cfg.flashChannels = 4;
    for (auto _ : state) {
        sched::DemandSink sink;
        sched::ClosedLoop loop(cfg);
        std::uint64_t issued = 0;
        loop.run(
            [&](Seconds& compute,
                std::span<const sched::Demand>& demands) {
                if (issued == requests)
                    return false;
                const Request& r = script[issued++ % script.size()];
                compute = r.compute;
                sink.clear();
                sink.record(sched::ResourceKind::DramPort, 0,
                            kDramService);
                const sched::BackgroundScope bg(&sink);
                for (std::uint32_t i = 0; i < r.bgOps; ++i)
                    sink.record(sched::ResourceKind::Disk, 0,
                                r.bgService * diskScale);
                demands = sink.demands();
                return true;
            },
            [](Seconds, Seconds, Seconds) {});
        benchmark::DoNotOptimize(loop.wallClock());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() * requests));
    state.counters["time_per_req"] = benchmark::Counter(
        static_cast<double>(requests),
        benchmark::Counter::kIsIterationInvariantRate |
            benchmark::Counter::kInvert);
}
BENCHMARK(BM_ClosedLoopClients)
    ->ArgName("clients")
    ->ArgsProduct({{1, 8, 64, 256, 1024}});

/** perfbench's financial1 shape: Table 4 footprint at 1/4, 1.5 ms
 *  mean compute. */
constexpr double kFinancial1Scale = 0.25;
constexpr Seconds kFinancial1Compute = 1.5e-3;

void
BM_Financial1Draws(benchmark::State& state)
{
    auto workload = makeMacro(macroConfig("Financial1", kFinancial1Scale));
    Rng rng(1);
    for (auto _ : state) {
        const TraceRecord r = workload->next(rng);
        const Seconds compute = rng.exponential(1.0 / kFinancial1Compute);
        benchmark::DoNotOptimize(r);
        benchmark::DoNotOptimize(compute);
    }
    state.SetItemsProcessed(state.iterations());
    state.counters["time_per_req"] = benchmark::Counter(
        1.0, benchmark::Counter::kIsIterationInvariantRate |
                 benchmark::Counter::kInvert);
}
BENCHMARK(BM_Financial1Draws);

} // namespace

BENCHMARK_MAIN();
