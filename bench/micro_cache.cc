/**
 * @file
 * google-benchmark microbenchmarks for the cache core: the chained
 * FCHT's bucket sweep behind the section 3.1 claim that ~100
 * indexable entries reach peak throughput, the open-addressed FCHT
 * and LRU structures the cache serves with, the hot read path, the
 * warm-restart snapshot decode, crash recovery over a real-data
 * medium and the stack-distance analyzer.
 */

#include <benchmark/benchmark.h>

#include <memory>
#include <sstream>
#include <unordered_set>
#include <vector>

#include "core/flash_cache.hh"
#include "core/lru.hh"
#include "core/tables.hh"
#include "fault/fault_injector.hh"
#include "support/fcht_chained.hh"
#include "support/lru_list.hh"
#include "support/memory_disk.hh"
#include "util/rng.hh"
#include "workload/stack_distance.hh"

using namespace flashcache;

namespace {

void
BM_FchtLookup(benchmark::State& state, bool random_lbas)
{
    // The open-addressed table the cache serves with: every slot is
    // a home position and the load factor stays below 0.7. Sequential
    // LBAs test how the hash spreads one dense run, and distinct
    // random LBAs below 2^32 test it on scattered keys.
    const int entries = 65536;
    std::vector<Lba> lbas(entries);
    Rng rng(4);
    std::unordered_set<Lba> seen;
    for (int k = 0; k < entries; ++k) {
        Lba l = k;
        if (random_lbas) {
            do
                l = rng.next() >> 32;
            while (!seen.insert(l).second);
        }
        lbas[k] = l;
    }
    Fcht t;
    for (int k = 0; k < entries; ++k)
        t.insert(lbas[k], k);
    std::uint64_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(t.find(lbas[i % entries]));
        i += 7919;
    }
    state.counters["avg_probe"] = t.avgProbeLength();
}
BENCHMARK_CAPTURE(BM_FchtLookup, sequential, false);
BENCHMARK_CAPTURE(BM_FchtLookup, random, true);

void
BM_FchtChainedLookup(benchmark::State& state)
{
    // Section 3.1: sweep the number of indexable hash entries of the
    // paper's chained table; probe cost flattens once chains are
    // short (~100 entries suffice for peak system throughput in the
    // paper).
    const auto buckets = static_cast<std::size_t>(state.range(0));
    FchtChained t(buckets);
    const int entries = 65536;
    for (Lba l = 0; l < entries; ++l)
        t.insert(l, l);
    std::uint64_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(t.find(i % entries));
        i += 7919;
    }
    state.counters["avg_probe"] = t.avgProbeLength();
}
BENCHMARK(BM_FchtChainedLookup)->Arg(16)->Arg(128)->Arg(1024)->Arg(16384);

void
BM_LruListTouch(benchmark::State& state)
{
    // Seed LRU: hash lookup plus std::list splice per touch.
    LruList<std::uint32_t> lru;
    const std::uint32_t n = 1024;
    for (std::uint32_t i = 0; i < n; ++i)
        lru.touch(i);
    std::uint64_t i = 0;
    for (auto _ : state) {
        lru.touch(static_cast<std::uint32_t>(i % n));
        i += 7919;
    }
}
BENCHMARK(BM_LruListTouch);

void
BM_IntrusiveLruTouch(benchmark::State& state)
{
    // Dense-id intrusive LRU (Region::lruBlocks): no hashing, no
    // heap nodes — two loads and four stores per touch.
    IntrusiveLru lru(1024);
    const std::uint32_t n = 1024;
    for (std::uint32_t i = 0; i < n; ++i)
        lru.touch(i);
    std::uint64_t i = 0;
    for (auto _ : state) {
        lru.touch(static_cast<std::uint32_t>(i % n));
        i += 7919;
    }
}
BENCHMARK(BM_IntrusiveLruTouch);

void
BM_PdcTouch(benchmark::State& state)
{
    // The primary disk cache's hit path: one FCHT probe from a
    // sparse LBA to its slot, then intrusive relinking of the
    // recency and, for a write, the dirty order.
    const std::uint32_t n = 1024;
    Pdc pdc(n);
    for (std::uint32_t i = 0; i < n; ++i)
        pdc.insert(1 + i * 0x9E3779B97ull, false);
    std::uint64_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            pdc.touch(1 + (i % n) * 0x9E3779B97ull, (i & 1) != 0));
        i += 7919;
    }
}
BENCHMARK(BM_PdcTouch);

void
BM_FlashCacheReadHit(benchmark::State& state)
{
    FlashGeometry geom;
    geom.numBlocks = 64;
    geom.framesPerBlock = 16;
    CellLifetimeModel lifetime;
    FlashDevice device(geom, FlashTiming(), lifetime, 5);
    FlashMemoryController ctrl(device);
    FixedLatencyStore store;
    FlashCache cache(ctrl, store);
    for (Lba l = 0; l < 512; ++l)
        cache.read(l);
    Lba l = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(cache.read(l % 512));
        ++l;
    }
}
BENCHMARK(BM_FlashCacheReadHit);

void
BM_FlashCacheWriteChurn(benchmark::State& state)
{
    // Out-of-place writes with steady GC pressure.
    FlashGeometry geom;
    geom.numBlocks = 32;
    geom.framesPerBlock = 16;
    CellLifetimeModel lifetime;
    FlashDevice device(geom, FlashTiming(), lifetime, 6);
    FlashMemoryController ctrl(device);
    FixedLatencyStore store;
    FlashCache cache(ctrl, store);
    Rng rng(7);
    for (auto _ : state)
        benchmark::DoNotOptimize(cache.write(rng.uniformInt(64)));
}
BENCHMARK(BM_FlashCacheWriteChurn);

/**
 * A financial1-sized cache (128 MB of MLC flash, 65,536 pages) after
 * churn that leaves about a third of its pages valid, with its
 * snapshot (device section and tables) held in memory so file I/O
 * stays out of the timing.
 */
struct Financial1SizedCache
{
    Financial1SizedCache()
        : geom(FlashGeometry::forMlcCapacity(128ull << 20)),
          device(geom, FlashTiming(), lifetime, 36), ctrl(device),
          cache(ctrl, store)
    {
        Rng rng(9);
        for (int i = 0; i < 200000; ++i) {
            const Lba l = rng.uniformInt(30000);
            if (rng.bernoulli(0.5))
                cache.write(l);
            else
                cache.read(l);
        }
        cache.saveState(snapshot);
    }

    /** Load the snapshot back into the same objects. */
    void
    load()
    {
        snapshot.clear();
        snapshot.seekg(0);
        cache.loadState(snapshot);
    }

    FlashGeometry geom;
    CellLifetimeModel lifetime;
    FlashDevice device;
    FlashMemoryController ctrl;
    FixedLatencyStore store;
    FlashCache cache;
    std::stringstream snapshot;
};

void
BM_FlashCacheLoadState(benchmark::State& state)
{
    // Warm-restart decode: both snapshot sections, the FCHT rebuild
    // and the closing invariant check.
    Financial1SizedCache f;
    for (auto _ : state)
        f.load();
    const std::int64_t pages =
        2ll * f.geom.numBlocks * f.geom.framesPerBlock;
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) * pages);
    state.counters["valid_pages"] =
        static_cast<double>(f.cache.validPages());
}
BENCHMARK(BM_FlashCacheLoadState)->Unit(benchmark::kMillisecond);

void
BM_FlashCacheCheckInvariants(benchmark::State& state)
{
    // The invariant check alone on the restored cache: the part of
    // BM_FlashCacheLoadState that re-finds every valid page in the
    // FCHT and recounts every block.
    Financial1SizedCache f;
    f.load();
    for (auto _ : state)
        f.cache.checkInvariants();
    state.counters["valid_pages"] =
        static_cast<double>(f.cache.validPages());
}
BENCHMARK(BM_FlashCacheCheckInvariants)->Unit(benchmark::kMillisecond);

/**
 * A crashed real-data medium of crash_recover's size (128 blocks x 16
 * frames, 4,096 MLC pages, ECC strength 4, a soft read-error rate of
 * 3e-6 per bit): uniform churn over 1.67x the cache's pages with 20%
 * writes, then a power cut that tears a page mid-program. The device
 * snapshot is held in memory so file I/O stays out of the timing.
 */
struct CrashedMedium
{
    static constexpr std::uint64_t kLbas = 6826;

    CrashedMedium()
    {
        geom.numBlocks = 128;
        geom.framesPerBlock = 16;
        auto dev = newDevice();
        FlashMemoryController ctrl(*dev);
        FlashCache cache(ctrl, disk, config());
        Rng rng(11);
        std::vector<std::uint8_t> buf(kTestPageBytes);
        std::vector<std::uint32_t> version(kLbas, 0);
        auto step = [&] {
            const Lba l = rng.uniformInt(kLbas);
            if (rng.bernoulli(0.2))
                cache.writeData(l, pageContent(l, ++version[l]).data());
            else
                cache.readData(l, buf.data());
        };
        for (int i = 0; i < 30000; ++i)
            step();
        FaultPlan plan;
        plan.seed = 1;
        plan.powerCutAtProgram = 400;
        FaultInjector inj(plan);
        dev->attachFaultInjector(&inj);
        try {
            for (;;)
                step();
        } catch (const PowerLossException&) {
        }
        dev->attachFaultInjector(nullptr);
        dev->saveState(medium);
    }

    static WearParams
    noWear()
    {
        WearParams w;
        w.nominalCycles = 1e9;
        return w;
    }

    static FlashCacheConfig
    config()
    {
        FlashCacheConfig c;
        c.realData = true;
        c.initialEccStrength = 4;
        return c;
    }

    std::unique_ptr<FlashDevice>
    newDevice() const
    {
        auto dev = std::make_unique<FlashDevice>(geom, FlashTiming(),
                                                 lifetime, 36, 0.0,
                                                 /*store_data=*/true);
        dev->setSoftErrorRate(3e-6);
        return dev;
    }

    /** Restore the crashed medium into `dev`. */
    void
    load(FlashDevice& dev)
    {
        medium.clear();
        medium.seekg(0);
        dev.loadState(medium);
    }

    FlashGeometry geom;
    CellLifetimeModel lifetime{noWear()};
    MemoryDisk disk;
    std::stringstream medium;
};

void
BM_FlashCacheRecover(benchmark::State& state, bool cold)
{
    // recover() alone over the crashed medium, as crash_recover times
    // it. /warm restores the medium into the same device every time,
    // so the weak-cell lifetimes sampled on first read stay cached;
    // /cold restores it into a newly constructed device, which must
    // sample them again inside recover().
    CrashedMedium m;
    auto dev = m.newDevice();
    std::unique_ptr<FlashMemoryController> ctrl;
    std::unique_ptr<FlashCache> cache;
    auto restart = [&] {
        cache.reset();
        ctrl.reset();
        if (cold)
            dev = m.newDevice();
        m.load(*dev);
        ctrl = std::make_unique<FlashMemoryController>(*dev);
        cache = std::make_unique<FlashCache>(*ctrl, m.disk,
                                             CrashedMedium::config());
    };
    if (!cold) {
        // One untimed pass samples every frame's weak cells.
        restart();
        cache->recover();
    }
    std::uint64_t scanned = 0;
    for (auto _ : state) {
        state.PauseTiming();
        restart();
        state.ResumeTiming();
        cache->recover();
        scanned = cache->stats().recovery.scannedPages;
        benchmark::DoNotOptimize(scanned);
    }
    state.counters["scanned_pages"] = static_cast<double>(scanned);
    state.counters["time_per_page"] = benchmark::Counter(
        static_cast<double>(scanned),
        benchmark::Counter::kIsIterationInvariantRate |
            benchmark::Counter::kInvert);
}
BENCHMARK_CAPTURE(BM_FlashCacheRecover, warm, false)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_FlashCacheRecover, cold, true)
    ->Unit(benchmark::kMicrosecond);

void
BM_StackDistanceAccess(benchmark::State& state)
{
    Rng rng(8);
    StackDistance sd;
    for (auto _ : state)
        sd.access(rng.uniformInt(100000));
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_StackDistanceAccess);

} // namespace

BENCHMARK_MAIN();
