/**
 * @file
 * Ablation: the GC victim-quality threshold (`gcMinInvalidFraction`).
 *
 * A disk cache may evict what a storage log must copy. Low
 * thresholds behave like an FTL (always relocate: high copy traffic,
 * maximal occupancy); high thresholds evict cold-valid blocks
 * through flushes instead. This sweep exposes the trade-off the
 * default (0.25) balances.
 */

#include <cstdio>
#include <vector>

#include "sweep.hh"

using namespace flashcache;

namespace {

bench::Values
run(double threshold)
{
    FlashCacheConfig cfg;
    cfg.gcMinInvalidFraction = threshold;
    bench::CacheStack s(FlashGeometry::forMlcCapacity(mib(32)), 9, cfg);

    auto gen = makeMacro(macroConfig("dbt2", 0.125));
    Rng rng(31);
    s.drive(*gen, rng, 600000);

    return s.values(
        {{"threshold", threshold},
         {"read_miss_rate", s.cache.stats().fgst.reads.missRate()}});
}

} // namespace

int
main(int argc, char** argv)
{
    bench::Sweep sweep(bench::Stack::CacheDirect, argc, argv);
    std::printf("=== Ablation: GC victim threshold (dbt2 model, 32 MB "
                "flash) ===\n\n");
    std::printf("%10s %13s %14s %14s %13s\n", "threshold", "read miss",
                "GC copies", "evict flushes", "occupancy");
    sweep.run(
        std::vector<double>{0.0, 0.10, 0.25, 0.50, 0.90},
        [](double t) { return bench::format("%.2f", t); }, run,
        [](double t, const bench::Values& v) {
            std::printf("%10.2f %12.1f%% %14llu %14llu %12.1f%%\n", t,
                        100.0 * v["read_miss_rate"],
                        v.count("cache.gc_copies"),
                        v.count("cache.eviction_flushes"),
                        100.0 * v["cache.occupancy"]);
        });
    std::printf("\nThreshold 0 = storage-log behaviour (copy "
                "everything, never evict); 0.9 = evict-mostly.\nThe "
                "default 0.25 keeps copies bounded without giving up "
                "occupancy.\n");
    return sweep.finish();
}
