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

#include "core/flash_cache.hh"
#include "workload/macro.hh"
#include "workload/synthetic.hh"

using namespace flashcache;

namespace {

struct Breakdown
{
    std::uint64_t ecc = 0;
    std::uint64_t density = 0;
};

Breakdown
run(WorkloadGenerator& gen)
{
    // Flash = half the working set (the paper's setup).
    const std::uint64_t flash_bytes = gen.workingSetPages() * 2048 / 2;
    const FlashGeometry geom = FlashGeometry::forMlcCapacity(flash_bytes);

    // Accelerated endurance: cells start failing after ~100 erases
    // instead of ~100k, compressing "near end of life" into seconds.
    WearParams wear;
    wear.nominalCycles = 100;
    wear.sigmaDecades = 1.0;
    CellLifetimeModel lifetime(wear);

    FlashDevice device(geom, FlashTiming(), lifetime, 29);
    FlashMemoryController ctrl(device);
    FixedLatencyStore store;

    FlashCacheConfig cfg;
    cfg.hotPageMigration = false; // isolate the fault-driven policy
    cfg.agingWindow = 1 << 14;
    // Aggressive global wear-leveling (section 3.5: "wear-leveling
    // is applied globally to all regions"): worn blocks rotate into
    // the read path, so read-hot pages see faults too.
    cfg.wearThreshold = 16.0;
    FlashCache cache(ctrl, store, cfg);

    Rng rng(23);
    // Stop once enough policy decisions accumulated: the paper
    // measures "near the point where the Flash cells start to fail",
    // before the end-of-life uncorrectable storm.
    const std::uint64_t ops = 1500000;
    const std::uint64_t enough = 4000;
    for (std::uint64_t i = 0; i < ops && !cache.failed(); ++i) {
        const TraceRecord r = gen.next(rng);
        if (r.isWrite)
            cache.write(r.lba);
        else
            cache.read(r.lba);
        if (cache.stats().policyEccChoices +
                cache.stats().policyDensityChoices >= enough) {
            break;
        }
    }
    return {cache.stats().policyEccChoices,
            cache.stats().policyDensityChoices};
}

void
report(const char* name, WorkloadGenerator& gen)
{
    const Breakdown b = run(gen);
    const double total = static_cast<double>(b.ecc + b.density);
    if (total == 0) {
        std::printf("%-12s %10s (no reconfiguration events)\n", name,
                    "-");
        return;
    }
    std::printf("%-12s %9.1f%% %9.1f%% %12llu\n", name,
                100.0 * b.ecc / total, 100.0 * b.density / total,
                static_cast<unsigned long long>(b.ecc + b.density));
}

} // namespace

int
main()
{
    std::printf("=== Figure 11: breakdown of page reconfiguration "
                "events (flash = 1/2 working set) ===\n\n");
    std::printf("%-12s %10s %10s %12s\n", "workload", "code str.",
                "density", "events");

    // Micro benchmarks at a bench-sized footprint (x1/16).
    for (const auto& cfg : table4MicroConfigs(1.0 / 16.0)) {
        auto gen = makeSynthetic(cfg);
        report(cfg.name.c_str(), *gen);
    }

    // Macro models, each scaled to a ~32 MB working set.
    for (const char* name : {"WebSearch1", "WebSearch2", "Financial1",
                             "Financial2"}) {
        const MacroConfig base = macroConfig(name, 1.0);
        const double scale = 16384.0 * 2048.0 /
            (static_cast<double>(base.readPages) * 2048.0);
        auto gen = makeMacro(macroConfig(name, scale));
        report(name, *gen);
    }

    std::printf("\nExpected shape: long-tailed workloads (uniform, low "
                "alpha) are dominated by ECC-strength\nupdates — "
                "capacity is precious and pages are cold; short-tailed "
                "ones (exp1/exp2) flip toward\ndensity (MLC->SLC) "
                "because hot pages profit from SLC latency and the "
                "miss cost of lost\ncapacity is negligible. Macro "
                "workloads land in between with high variance.\n");
    return 0;
}
