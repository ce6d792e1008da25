/**
 * @file
 * Figure 11: breakdown of page reconfiguration events — increase
 * ECC strength vs switch MLC->SLC — across the ten Table 4
 * workloads, measured near the point where flash cells start to
 * fail, with the flash sized at half the workload's working set.
 *
 * Endurance is accelerated (documented below) so cells start
 * failing within a bench-sized run; the decision heuristics only
 * see relative frequencies and latencies, so the breakdown is
 * unaffected by the acceleration.
 */

#include <cstdio>

#include "sweep.hh"

using namespace flashcache;

namespace {

bench::Values
run(const bench::WorkloadPoint& w)
{
    const auto gen = w.make();
    // Flash = half the working set (the paper's setup).
    const std::uint64_t flash_bytes = gen->workingSetPages() * 2048 / 2;
    const FlashGeometry geom = FlashGeometry::forMlcCapacity(flash_bytes);

    // Accelerated endurance: cells start failing after ~100 erases
    // instead of ~100k, compressing "near end of life" into seconds.
    WearParams wear;
    wear.nominalCycles = 100;
    wear.sigmaDecades = 1.0;

    FlashCacheConfig cfg;
    cfg.hotPageMigration = false; // isolate the fault-driven policy
    cfg.agingWindow = 1 << 14;
    // Aggressive global wear-leveling (section 3.5: "wear-leveling
    // is applied globally to all regions"): worn blocks rotate into
    // the read path, so read-hot pages see faults too.
    cfg.wearThreshold = 16.0;
    bench::CacheStack s(geom, 29, cfg, wear);

    Rng rng(23);
    // Stop once enough policy decisions accumulated: the paper
    // measures "near the point where the Flash cells start to fail",
    // before the end-of-life uncorrectable storm.
    const std::uint64_t ops = 1500000;
    const std::uint64_t enough = 4000;
    const FlashCacheStats& st = s.cache.stats();
    s.drive(*gen, rng, ops, [&] {
        return st.policyEccChoices + st.policyDensityChoices >= enough;
    });
    const double total =
        static_cast<double>(st.policyEccChoices + st.policyDensityChoices);
    bench::Values v{{"events", total}};
    if (total != 0) {
        v.set("ecc_pct", 100.0 * st.policyEccChoices / total);
        v.set("density_pct", 100.0 * st.policyDensityChoices / total);
    }
    return s.values(v);
}

void
report(const bench::WorkloadPoint& w, const bench::Values& v)
{
    if (v["events"] == 0) {
        std::printf("%-12s %10s (no reconfiguration events)\n",
                    w.name.c_str(), "-");
        return;
    }
    std::printf("%-12s %9.1f%% %9.1f%% %12llu\n", w.name.c_str(),
                v["ecc_pct"], v["density_pct"], v.count("events"));
}

} // namespace

int
main(int argc, char** argv)
{
    bench::Sweep sweep(bench::Stack::CacheDirect, argc, argv);
    std::printf("=== Figure 11: breakdown of page reconfiguration "
                "events (flash = 1/2 working set) ===\n\n");
    std::printf("%-12s %10s %10s %12s\n", "workload", "code str.",
                "density", "events");

    // Micro benchmarks at a bench-sized footprint (x1/16); macro
    // models, each scaled to a ~32 MB working set.
    sweep.run(bench::table4Workloads(1.0 / 16.0, 16384.0),
              [](const bench::WorkloadPoint& w) { return w.name; }, run,
              report);

    std::printf("\nExpected shape: long-tailed workloads (uniform, low "
                "alpha) are dominated by ECC-strength\nupdates — "
                "capacity is precious and pages are cold; short-tailed "
                "ones (exp1/exp2) flip toward\ndensity (MLC->SLC) "
                "because hot pages profit from SLC latency and the "
                "miss cost of lost\ncapacity is negligible. Macro "
                "workloads land in between with high variance.\n");
    return sweep.finish();
}
