/**
 * @file
 * Ablation: wear-level-aware replacement (section 3.6).
 *
 * Compares erase-count spread and device lifetime with wear-leveling
 * disabled, and across migration thresholds. The policy erases all
 * blocks more uniformly at the cost of occasional content
 * migrations, which is exactly what buys lifetime on skewed
 * workloads.
 */

#include <algorithm>
#include <cstdio>
#include <vector>

#include "sweep.hh"

using namespace flashcache;

namespace {

/** Wear-leveling at `threshold`; 0 runs with it off. */
bench::Values
run(double threshold)
{
    WearParams wear;
    wear.nominalCycles = 120;
    wear.sigmaDecades = 0.8;

    FlashGeometry geom;
    geom.numBlocks = 32;
    geom.framesPerBlock = 16;

    FlashCacheConfig cfg;
    cfg.wearLeveling = threshold != 0.0;
    cfg.wearThreshold = threshold;
    cfg.hotPageMigration = false;
    bench::CacheStack s(geom, 77, cfg, wear);

    // Skewed traffic: hot overwrites plus a cold resident set.
    Rng rng(5);
    ZipfSampler zipf(800, 1.3);
    std::uint64_t first_retire = 0;
    std::uint64_t n = 0;
    while (n < 3000000) {
        const Lba l = zipf.sample(rng);
        if (rng.bernoulli(0.5))
            s.cache.write(l);
        else
            s.cache.read(l);
        ++n;
        if (s.cache.stats().retiredBlocks > 0) {
            first_retire = n;
            break;
        }
    }
    if (first_retire == 0)
        first_retire = n; // survived the whole run

    std::uint32_t max_e = 0;
    std::uint64_t sum_e = 0;
    for (std::uint32_t b = 0; b < geom.numBlocks; ++b) {
        max_e = std::max(max_e, s.device.blockEraseCount(b));
        sum_e += s.device.blockEraseCount(b);
    }
    const double mean = static_cast<double>(sum_e) / geom.numBlocks;
    return s.values({{"threshold", threshold},
                     {"max_over_mean_erase", mean > 0 ? max_e / mean : 0.0},
                     {"accesses_to_first_retire", first_retire}});
}

} // namespace

int
main(int argc, char** argv)
{
    bench::Sweep sweep(bench::Stack::CacheDirect, argc, argv);
    std::printf("=== Ablation: wear-level aware replacement "
                "(zipf 1.3, 50%% writes, accelerated wear) ===\n\n");
    std::printf("%-22s %14s %12s %22s\n", "configuration",
                "max/mean erase", "migrations", "accesses to 1st "
                "retire");
    sweep.run(
        std::vector<double>{0.0, 256.0, 64.0, 16.0},
        [](double t) {
            return t ? bench::format("threshold %.0f", t)
                     : std::string("wear-leveling OFF");
        },
        run,
        [](double t, const bench::Values& v) {
            if (t)
                std::printf("threshold %-12.0f", t);
            else
                std::printf("%-22s", "wear-leveling OFF");
            std::printf(" %14.2f %12llu %22llu\n",
                        v["max_over_mean_erase"],
                        v.count("cache.wear_migrations"),
                        v.count("accesses_to_first_retire"));
        });

    std::printf("\nLower thresholds level erases more tightly (more "
                "migrations) and postpone the first\nblock retirement "
                "— the section 3.6 trade-off.\n");
    return sweep.finish();
}
