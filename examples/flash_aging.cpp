/**
 * @file
 * Flash aging walkthrough: watch a cache wear out in fast-forward
 * and see the programmable controller's responses (section 5.2) —
 * rising ECC strengths, MLC->SLC density switches, hot-page
 * migrations, block retirement — and compare against the fixed
 * BCH-1 controller that the paper's Figure 12 baselines.
 *
 * Endurance is accelerated (cells start failing after ~60 erases
 * instead of ~100k) so an entire lifetime fits in seconds.
 */

#include <cstdio>

#include "core/flash_cache.hh"
#include "util/rng.hh"

using namespace flashcache;

namespace {

struct AgingRun
{
    std::uint64_t accessesToFailure = 0;
    FlashCacheStats finalStats;
};

AgingRun
ageToDeath(bool programmable, bool verbose)
{
    WearParams wear;
    wear.nominalCycles = 60;
    wear.sigmaDecades = 0.8;
    CellLifetimeModel lifetime(wear);

    const FlashGeometry geom = FlashGeometry::forMlcCapacity(mib(8));
    FlashDevice device(geom, FlashTiming(), lifetime, 31);
    FlashMemoryController controller(device);
    FixedLatencyStore disk;

    FlashCacheConfig cfg;
    cfg.adaptiveReconfig = programmable;
    cfg.hotPageMigration = programmable;
    if (!programmable) {
        cfg.initialEccStrength = 1;
        cfg.maxEccStrength = 1;
    }
    FlashCache cache(controller, disk, cfg);

    Rng rng(3);
    ZipfSampler zipf(8192, 1.2);
    AgingRun out;
    std::uint64_t next_report = 1;
    while (out.accessesToFailure < 80000000 && !cache.failed()) {
        const Lba lba = zipf.sample(rng);
        if (rng.bernoulli(0.5))
            cache.write(lba);
        else
            cache.read(lba);
        ++out.accessesToFailure;

        if (verbose && out.accessesToFailure == next_report * 100000) {
            const FlashCacheStats& st = cache.stats();
            std::printf("  %7lluk accesses: ecc+%llu density+%llu "
                        "hot+%llu retired %llu/%u uncorrectable %llu\n",
                        static_cast<unsigned long long>(
                            out.accessesToFailure / 1000),
                        static_cast<unsigned long long>(st.eccReconfigs),
                        static_cast<unsigned long long>(
                            st.densityReconfigs),
                        static_cast<unsigned long long>(st.hotMigrations),
                        static_cast<unsigned long long>(st.retiredBlocks),
                        geom.numBlocks,
                        static_cast<unsigned long long>(
                            st.uncorrectableReads));
            ++next_report;
        }
    }
    out.finalStats = cache.stats();
    return out;
}

} // namespace

int
main()
{
    std::printf("Aging an 8 MB flash disk cache to total failure "
                "(endurance accelerated ~1700x).\n");

    std::printf("\n--- programmable flash memory controller ---\n");
    const AgingRun prog = ageToDeath(true, true);
    std::printf("survived %llu accesses; final: %llu ECC bumps, %llu "
                "density switches,\n%llu hot migrations, %llu pages "
                "lost\n",
                static_cast<unsigned long long>(prog.accessesToFailure),
                static_cast<unsigned long long>(
                    prog.finalStats.eccReconfigs),
                static_cast<unsigned long long>(
                    prog.finalStats.densityReconfigs),
                static_cast<unsigned long long>(
                    prog.finalStats.hotMigrations),
                static_cast<unsigned long long>(
                    prog.finalStats.dataLossPages));

    std::printf("\n--- fixed BCH-1 controller (baseline) ---\n");
    const AgingRun fixed = ageToDeath(false, false);
    std::printf("survived %llu accesses\n",
                static_cast<unsigned long long>(fixed.accessesToFailure));

    std::printf("\nlifetime extension: %.1fx (the paper reports ~20x "
                "on average, Figure 12)\n",
                static_cast<double>(prog.accessesToFailure) /
                    static_cast<double>(
                        std::max<std::uint64_t>(fixed.accessesToFailure,
                                                1)));
    return 0;
}
