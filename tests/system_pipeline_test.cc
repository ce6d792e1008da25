/**
 * @file
 * SystemSimulator's three-stage pipeline under allocation faults: an
 * exception in the engine stage stops the draw and model stages and
 * is rethrown from run(), and the draw stage never allocates.
 *
 * Global operator new is replaced: it counts each thread's
 * allocations and, while armed, throws std::bad_alloc on any thread
 * not marked exempt. The test thread (the model stage) and the
 * generator's thread (the draw stage) mark themselves, so an armed
 * fault lands on the engine thread.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "sim/system_sim.hh"
#include "workload/macro.hh"

// The replacement new uses malloc and the replacement delete frees
// it; GCC cannot see the pairing across the replacement boundary, so
// the mismatch warning is a false positive here.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

namespace {
std::atomic<bool> g_failArmed{false};
thread_local bool t_exempt = false;
thread_local std::uint64_t t_allocs = 0;
} // namespace

void*
operator new(std::size_t n)
{
    ++t_allocs;
    if (g_failArmed.load(std::memory_order_relaxed) && !t_exempt)
        throw std::bad_alloc();
    if (void* p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void*
operator new[](std::size_t n)
{
    return operator new(n);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace flashcache {
namespace {

/** Financial1 draws that mark the drawing thread exempt and record
 *  how often it allocated between its first and its last draw. */
class DrawThreadProbe : public WorkloadGenerator
{
  public:
    DrawThreadProbe()
        : inner_(makeMacro(macroConfig("Financial1", 0.02)))
    {
    }

    TraceRecord
    next(Rng& rng) override
    {
        t_exempt = true;
        if (calls_++ == 0)
            firstAllocs_ = t_allocs;
        allocsSinceFirst = t_allocs - firstAllocs_;
        return inner_->next(rng);
    }

    std::string name() const override { return inner_->name(); }

    std::uint64_t
    workingSetPages() const override
    {
        return inner_->workingSetPages();
    }

    std::uint64_t allocsSinceFirst = 0;

  private:
    std::unique_ptr<WorkloadGenerator> inner_;
    std::uint64_t calls_ = 0;
    std::uint64_t firstAllocs_ = 0;
};

SystemConfig
smallConfig()
{
    SystemConfig cfg;
    cfg.dramBytes = mib(4);
    cfg.flashBytes = mib(8);
    cfg.seed = 5;
    return cfg;
}

TEST(SystemPipelineTest, EngineExceptionStopsEveryStage)
{
    SystemSimulator sim(smallConfig());
    DrawThreadProbe gen;
    t_exempt = true;
    g_failArmed.store(true);
    // Unbounded: only the engine's failure ends the run. The engine
    // allocates its first request's stage list, so it throws at once.
    EXPECT_THROW(sim.run(gen, ~0ull), std::bad_alloc);
    g_failArmed.store(false);
    EXPECT_EQ(sim.scheduler().requestsCompleted(), 0u);
    EXPECT_GT(sim.stats().requests, 0u);
}

TEST(SystemPipelineTest, DrawStageNeverAllocates)
{
    // The draw batches are reserved when the simulator is built, so
    // pushing drawn requests allocates nothing on the draw thread.
    SystemSimulator sim(smallConfig());
    DrawThreadProbe gen;
    sim.run(gen, 20000);
    EXPECT_EQ(sim.stats().requests, 20000u);
    EXPECT_EQ(gen.allocsSinceFirst, 0u);
}

} // namespace
} // namespace flashcache
