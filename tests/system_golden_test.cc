/**
 * @file
 * Golden bit-identity test of the full system simulator.
 *
 * A small Financial1-shaped run (8 closed-loop clients, write-region
 * GC, the disk the bottleneck) is driven by two run() calls, the
 * second continuing the first one's clock. The test hashes every
 * scalar of the metric registry plus the system.request_latency bins
 * and compares the hash against a constant. Comparing two runs of
 * the same binary (SystemDeterminismTest) cannot see a change of
 * request order that both runs share; a fixed constant can. Any
 * change that alters a simulated number must update the constant
 * and say why.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <string_view>

#include "sim/system_sim.hh"
#include "workload/macro.hh"

namespace flashcache {
namespace {

/** 64-bit FNV-1a over names and the bit patterns of values. */
class Fnv
{
  public:
    void
    add(std::string_view bytes)
    {
        for (const char c : bytes) {
            h_ ^= static_cast<unsigned char>(c);
            h_ *= 0x100000001b3ull;
        }
    }

    void
    add(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h_ ^= (v >> (8 * i)) & 0xff;
            h_ *= 0x100000001b3ull;
        }
    }

    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ull;
};

SystemConfig
financial1Shape()
{
    SystemConfig cfg;
    cfg.dramBytes = mib(4);
    cfg.flashBytes = mib(8);
    cfg.seed = 11;
    cfg.computeTime = milliseconds(1.5);
    cfg.clients = 8;
    cfg.flashChannels = 4;
    return cfg;
}

TEST(SystemGoldenTest, Financial1ShapeMatchesRecordedHash)
{
    SystemSimulator sim(financial1Shape());
    auto gen = makeMacro(macroConfig("Financial1", 0.02));
    sim.run(*gen, 30000);
    const Seconds firstWall = sim.stats().wallClock;
    sim.run(*gen, 30000);

    const obs::MetricRegistry& reg = sim.metrics();
    // The shape the hash stands for: GC ran, the disk bounds
    // throughput, and the second run continued the first's clock.
    EXPECT_GT(reg.value("cache.gc_erases"), 0.0);
    EXPECT_GT(reg.value("sched.disk.utilization"), 0.9);
    EXPECT_GT(sim.stats().wallClock, firstWall);
    EXPECT_EQ(reg.value("sched.requests"), 60000.0);

    Fnv h;
    reg.visitScalars([&](const obs::MetricDesc& d, double v) {
        h.add(std::string_view(d.name));
        h.add(std::bit_cast<std::uint64_t>(v));
    });
    const Histogram& lat = sim.stats().requestLatency;
    for (std::size_t i = 0; i < lat.bins(); ++i)
        h.add(lat.binCount(i));
    char hex[19];
    std::snprintf(hex, sizeof hex, "0x%016llx",
                  static_cast<unsigned long long>(h.value()));
    EXPECT_EQ(h.value(), 0x4eadc5df19e5a650ull) << "hash is " << hex;
}

} // namespace
} // namespace flashcache
