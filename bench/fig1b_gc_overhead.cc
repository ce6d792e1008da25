/**
 * @file
 * Figure 1(b): garbage collection overhead versus occupied flash
 * space.
 *
 * The paper fills a 2 GB flash log to a target live occupancy and
 * measures the share of time spent garbage collecting, normalized so
 * that a 10% overhead reads as 1.0; GC becomes overwhelming well
 * before the device is full (the eNVy study [26] could only use 80%
 * of its capacity). We run the same experiment on a 64 MB device —
 * the curve depends on occupancy, not absolute size.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "sweep.hh"
#include "util/log.hh"
#include "util/rng.hh"

using namespace flashcache;

namespace {

bench::Values
gcOverheadAtOccupancy(double used_fraction)
{
    FlashCacheConfig cfg;
    cfg.splitRegions = false; // the whole device is one write log
    cfg.wearLeveling = false;
    cfg.hotPageMigration = false;
    cfg.adaptiveReconfig = false;
    // Figure 1(b) is about flash *storage* (eNVy / flash file
    // systems), which cannot evict data — GC must always relocate.
    cfg.gcMinInvalidFraction = 0.0;
    bench::CacheStack s(FlashGeometry::forMlcCapacity(mib(64)), 42, cfg);
    FlashCache& cache = s.cache;

    const auto live_pages = static_cast<Lba>(
        used_fraction * static_cast<double>(cache.capacityPages()));
    Rng rng(7);

    // Warm to the target occupancy, then measure steady state.
    for (Lba l = 0; l < live_pages; ++l)
        cache.write(l);
    const Seconds warm_gc = cache.stats().gcTime;
    // Flash time is the array's plus the ECC engine's.
    const auto flash_busy = [&] {
        return s.device.stats().busyTime + s.ctrl.stats().eccTime;
    };
    const Seconds warm_busy = flash_busy();

    const std::uint64_t ops = 4 * cache.capacityPages();
    for (std::uint64_t i = 0; i < ops; ++i)
        cache.write(rng.uniformInt(live_pages));
    if (cache.stats().evictions > 0)
        fatal("the storage log evicted " +
              std::to_string(cache.stats().evictions) +
              " blocks: a log that evicts is not flash storage");

    // Overhead = GC time relative to useful (non-GC) flash work;
    // this is the product of GC frequency and latency the paper
    // plots, and it diverges as free space vanishes.
    const Seconds gc = cache.stats().gcTime - warm_gc;
    const Seconds busy = flash_busy() - warm_busy;
    const Seconds useful = busy - gc;
    const double overhead = useful > 0.0 ? gc / useful : 0.0;
    return s.values({{"used_fraction", used_fraction},
                     {"gc_over_useful", overhead},
                     {"normalized", overhead / 0.10}});
}

} // namespace

int
main(int argc, char** argv)
{
    bench::Sweep sweep(bench::Stack::CacheDirect, argc, argv);
    std::printf("=== Figure 1(b): GC overhead vs used flash space ===\n");
    std::printf("(steady-state uniform overwrites of the live set; "
                "normalized so 10%% time overhead = 1.0)\n\n");
    std::printf("%12s %16s %12s\n", "used space", "GC/useful work",
                "normalized");
    sweep.run(
        std::vector<double>{0.10, 0.20, 0.30, 0.40, 0.50, 0.60, 0.70,
                            0.80, 0.85, 0.90, 0.95},
        [](double u) { return bench::format("%.0f%%", u * 100.0); },
        gcOverheadAtOccupancy,
        [](double u, const bench::Values& v) {
            std::printf("%11.0f%% %15.1f%% %12.2f\n", u * 100.0,
                        v["gc_over_useful"] * 100.0, v["normalized"]);
        });
    std::printf("\nExpected shape: negligible below ~50%%, a knee past "
                "80%%, overwhelming by ~95%%.\n");
    return sweep.finish();
}
