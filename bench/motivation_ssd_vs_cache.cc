/**
 * @file
 * Section 2.2's motivating comparison: flash as a solid-state disk
 * (a page-mapped log that owns the only copy of the data, the eNVy
 * [26] design) versus flash as a disk cache, on the same device and
 * the same traffic.
 *
 * Both columns run FlashCache as one unified write log. The SSD is
 * its storage-log mode (gcMinInvalidFraction = 0, fig1b's setting):
 * GC may take any block but must relocate every valid page in it, as
 * a page-mapped FTL's greedy GC does, and nothing is ever evicted.
 * The disk cache keeps the default threshold, so it evicts blocks of
 * cold valid pages instead of copying them.
 *
 * The paper's two arguments, made executable:
 *  1. GC overhead: the SSD can never evict, so its garbage collection
 *     grows with utilization until only ~80% of the capacity is
 *     usable; the cache evicts cold blocks and keeps GC bounded.
 *  2. Metadata: the FTL's mapping table covers the whole logical
 *     space; the cache's tables are bounded by the flash size
 *     (< 2% of it, section 3).
 */

#include <cstdio>
#include <string>
#include <vector>

#include "sweep.hh"
#include "util/log.hh"
#include "util/rng.hh"

using namespace flashcache;

namespace {

WearParams
noWear()
{
    WearParams wp;
    wp.nominalCycles = 1e9;
    return wp;
}

/**
 * GC time over useful flash time for uniform overwrites of a live set
 * filling `utilization` of a 32 MB log; `storage_log` runs the SSD.
 * Adds the ratio and the stack's registry to `v` under `ssd.` or
 * `disk_cache.`.
 */
void
gcOverhead(double utilization, bool storage_log, bench::Values& v)
{
    FlashCacheConfig cfg;
    cfg.splitRegions = false;
    cfg.hotPageMigration = false;
    if (storage_log)
        cfg.gcMinInvalidFraction = 0.0;
    bench::CacheStack s(FlashGeometry::forMlcCapacity(mib(32)), 1, cfg,
                        noWear());
    FlashCache& cache = s.cache;

    const auto live = static_cast<Lba>(
        utilization * static_cast<double>(cache.capacityPages()));
    Rng rng(7);
    for (Lba l = 0; l < live; ++l)
        cache.write(l);
    for (std::uint64_t i = 0; i < 4ull * live; ++i)
        cache.write(rng.uniformInt(live));
    if (storage_log && cache.stats().evictions > 0)
        fatal("the storage log evicted " +
              std::to_string(cache.stats().evictions) +
              " blocks: a log that evicts is not an SSD");
    // Flash time is the array's plus the ECC engine's; the cache's
    // write-backs to the disk are not flash work.
    const Seconds useful = s.device.stats().busyTime +
        s.ctrl.stats().eccTime - cache.stats().gcTime;
    const std::string prefix = storage_log ? "ssd" : "disk_cache";
    v.set(prefix + ".gc_over_useful",
          useful > 0.0 ? cache.stats().gcTime / useful : 0.0);
    v = s.values(v, prefix);
}

} // namespace

int
main(int argc, char** argv)
{
    bench::Sweep sweep(bench::Stack::CacheDirect, argc, argv);
    std::printf("=== Section 2.2: flash-as-SSD (eNVy-style FTL) vs "
                "flash-as-disk-cache ===\n\n");
    std::printf("--- GC overhead (GC time / useful time) under "
                "uniform overwrites, 32 MB flash ---\n");
    std::printf("%12s %14s %18s\n", "live data", "SSD (log)",
                "disk cache");
    sweep.run(
        std::vector<double>{0.50, 0.70, 0.80, 0.90, 0.94},
        [](double u) { return bench::format("%.0f%%", u * 100.0); },
        [](double u) {
            bench::Values v{{"live_fraction", u}};
            gcOverhead(u, true, v);
            gcOverhead(u, false, v);
            return v;
        },
        [](double u, const bench::Values& v) {
            std::printf("%11.0f%% %13.1f%% %17.1f%%\n", u * 100.0,
                        100.0 * v["ssd.gc_over_useful"],
                        100.0 * v["disk_cache.gc_over_useful"]);
        });

    // Metadata comparison at server scale (computed, not simulated).
    std::printf("\n--- DRAM metadata for a 32 GB flash in front of a "
                "1 TB disk ---\n");
    const double ftl_bytes = (1024.0 * 1024 * 1024 * 1024 / 2048) * 8;
    const double cache_bytes = 32.0 * 1024 * 1024 * 1024 * 0.02;
    sweep.summary().set("ftl_mapping_gb", ftl_bytes / (1 << 30));
    sweep.summary().set("cache_tables_gb", cache_bytes / (1 << 30));
    std::printf("%-34s %8.1f GB (8 B per logical page of the disk)\n",
                "SSD/file system mapping", ftl_bytes / (1 << 30));
    std::printf("%-34s %8.1f GB (~2%% of the flash, section 3)\n",
                "disk cache tables (FCHT/FPST/...)",
                cache_bytes / (1 << 30));

    std::printf("\nExpected shape: the FTL's GC overhead explodes past "
                "~80%% utilization while the cache's\nstays bounded "
                "(it may evict); the cache's metadata is bounded by "
                "the flash, not the disk.\n");
    return sweep.finish();
}
