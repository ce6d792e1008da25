/**
 * @file
 * Figure 12: normalized flash lifetime — accesses sustained until
 * the point of total flash failure — for the programmable flash
 * memory controller versus a fixed BCH-1 error-correcting
 * controller, across nine Table 4 workloads.
 *
 * Endurance is accelerated (nominal cycles scaled from 1e5 down to
 * ~40) so both controllers reach end of life in seconds; the
 * comparison is a ratio of access counts, which the scaling leaves
 * intact. The paper reports a ~20x average lifetime extension.
 */

#include <cmath>
#include <cstdio>

#include "sweep.hh"

using namespace flashcache;

namespace {

std::uint64_t
accessesToFailure(WorkloadGenerator& gen, bool programmable,
                  std::uint64_t cap, bench::Values& v)
{
    // Small flash + accelerated wear: end of life within seconds.
    const FlashGeometry geom = FlashGeometry::forMlcCapacity(mib(4));
    WearParams wear;
    wear.nominalCycles = 40;
    wear.sigmaDecades = 0.8;

    FlashCacheConfig cfg;
    cfg.adaptiveReconfig = programmable;
    cfg.hotPageMigration = programmable;
    cfg.agingWindow = 1 << 14;
    if (!programmable) {
        cfg.initialEccStrength = 1;
        cfg.maxEccStrength = 1; // the BCH-1 baseline controller
    }
    bench::CacheStack s(geom, 37, cfg, wear);

    Rng rng(41);
    const std::uint64_t n = s.drive(gen, rng, cap);
    v = s.values(v, programmable ? "programmable" : "bch1");
    return n;
}

bench::Values
evaluate(const bench::WorkloadPoint& w)
{
    const std::uint64_t cap = 30000000;
    bench::Values v;
    const std::uint64_t prog = accessesToFailure(*w.make(), true, cap, v);
    const std::uint64_t fixed = accessesToFailure(*w.make(), false, cap,
                                                  v);
    const double ratio = static_cast<double>(prog) /
        static_cast<double>(std::max<std::uint64_t>(fixed, 1));
    v.set("programmable_accesses", prog);
    v.set("bch1_accesses", fixed);
    v.set("norm_bch1", 1.0 / ratio);
    v.set("extension", ratio);
    return v;
}

} // namespace

int
main(int argc, char** argv)
{
    bench::Sweep sweep(bench::Stack::CacheDirect, argc, argv);
    std::printf("=== Figure 12: normalized lifetime, programmable "
                "controller vs BCH-1 (accelerated wear) ===\n\n");
    std::printf("%-12s %14s %14s %14s %12s\n", "workload",
                "programmable", "BCH-1 fixed", "norm. BCH-1",
                "extension");

    // Working sets sized at twice the flash (steady churn), per the
    // lifetime experiment's intent of a fixed access rate.
    auto workloads = bench::table4Workloads(4096.0 / 262144.0, 4096.0);
    // The paper's Figure 12 lists nine workloads.
    std::erase_if(workloads, [](const bench::WorkloadPoint& w) {
        return w.name == "exp2";
    });
    sweep.run(
        workloads, [](const bench::WorkloadPoint& w) { return w.name; },
        evaluate,
        [](const bench::WorkloadPoint& w, const bench::Values& v) {
            std::printf("%-12s %14llu %14llu %14.5f %11.1fx\n",
                        w.name.c_str(),
                        v.count("programmable_accesses"),
                        v.count("bch1_accesses"),
                        v["norm_bch1"], v["extension"]);
        });

    double geo_sum = 0.0;
    for (const bench::Row& row : sweep.rows())
        geo_sum += std::log(row.values["extension"]);
    const double geo_mean = std::exp(geo_sum / sweep.rows().size());
    sweep.summary().set("geomean_extension", geo_mean);
    std::printf("\nGeometric-mean lifetime extension: %.1fx "
                "(paper: ~20x on average)\n",
                geo_mean);
    return sweep.finish();
}
