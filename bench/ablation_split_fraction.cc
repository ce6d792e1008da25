/**
 * @file
 * Ablation: the read/write region split ratio.
 *
 * The paper dedicates 90% of the flash to the read region "based on
 * the observed write behavior" (section 3.5). This sweep varies the
 * fraction on the dbt2 model and reports read miss rate and GC
 * effort, showing the basin around the paper's choice.
 */

#include <cstdio>

#include "core/flash_cache.hh"
#include "workload/macro.hh"

using namespace flashcache;

namespace {

struct Result
{
    double missRate;
    double gcShare;
    std::uint64_t flushes;
};

Result
run(double read_fraction)
{
    CellLifetimeModel lifetime;
    const FlashGeometry geom = FlashGeometry::forMlcCapacity(mib(48));
    FlashDevice device(geom, FlashTiming(), lifetime, 15);
    FlashMemoryController ctrl(device);
    FixedLatencyStore store;

    FlashCacheConfig cfg;
    cfg.readRegionFraction = read_fraction;
    FlashCache cache(ctrl, store, cfg);

    auto gen = makeMacro(macroConfig("dbt2", 0.125));
    Rng rng(3);
    for (int i = 0; i < 800000; ++i) {
        const TraceRecord r = gen->next(rng);
        if (r.isWrite)
            cache.write(r.lba);
        else
            cache.read(r.lba);
    }
    return {cache.stats().fgst.reads.missRate(),
            cache.gcOverheadFraction(),
            cache.stats().evictionFlushes};
}

} // namespace

int
main()
{
    std::printf("=== Ablation: read-region fraction of the split flash "
                "cache (dbt2 model, 48 MB flash) ===\n\n");
    std::printf("%14s %14s %12s %14s\n", "read fraction",
                "read miss", "GC share", "dirty flushes");
    for (const double f : {0.50, 0.60, 0.70, 0.80, 0.90, 0.95, 0.98}) {
        const Result r = run(f);
        std::printf("%13.0f%% %13.1f%% %11.1f%% %14llu\n", f * 100.0,
                    r.missRate * 100.0, r.gcShare * 100.0,
                    static_cast<unsigned long long>(r.flushes));
    }
    std::printf("\nThe optimum tracks the write intensity — the paper "
                "picked 90/10 \"based on the observed\nwrite "
                "behavior\" of its traces; this 35%%-write OLTP model "
                "prefers a larger write region,\nand pushing the read "
                "share higher only starves the log and multiplies "
                "flushes.\n");
    return 0;
}
