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

#include "core/flash_cache.hh"
#include "workload/macro.hh"
#include "workload/synthetic.hh"

using namespace flashcache;

namespace {

std::uint64_t
accessesToFailure(WorkloadGenerator& gen, bool programmable,
                  std::uint64_t cap)
{
    // Small flash + accelerated wear: end of life within seconds.
    const FlashGeometry geom = FlashGeometry::forMlcCapacity(mib(4));
    WearParams wear;
    wear.nominalCycles = 40;
    wear.sigmaDecades = 0.8;
    CellLifetimeModel lifetime(wear);

    FlashDevice device(geom, FlashTiming(), lifetime, 37);
    FlashMemoryController ctrl(device);
    FixedLatencyStore store;

    FlashCacheConfig cfg;
    cfg.adaptiveReconfig = programmable;
    cfg.hotPageMigration = programmable;
    cfg.agingWindow = 1 << 14;
    if (!programmable) {
        cfg.initialEccStrength = 1;
        cfg.maxEccStrength = 1; // the BCH-1 baseline controller
    }
    FlashCache cache(ctrl, store, cfg);

    Rng rng(41);
    std::uint64_t n = 0;
    while (n < cap && !cache.failed()) {
        const TraceRecord r = gen.next(rng);
        if (r.isWrite)
            cache.write(r.lba);
        else
            cache.read(r.lba);
        ++n;
    }
    return n;
}

} // namespace

int
main()
{
    std::printf("=== Figure 12: normalized lifetime, programmable "
                "controller vs BCH-1 (accelerated wear) ===\n\n");
    std::printf("%-12s %14s %14s %14s %12s\n", "workload",
                "programmable", "BCH-1 fixed", "norm. BCH-1",
                "extension");

    const std::uint64_t cap = 30000000;
    double geo_sum = 0.0;
    int count = 0;

    auto evaluate = [&](const char* name,
                        std::unique_ptr<WorkloadGenerator> make_a,
                        std::unique_ptr<WorkloadGenerator> make_b) {
        const std::uint64_t prog = accessesToFailure(*make_a, true, cap);
        const std::uint64_t fixed = accessesToFailure(*make_b, false,
                                                      cap);
        const double ratio = static_cast<double>(prog) /
            static_cast<double>(std::max<std::uint64_t>(fixed, 1));
        std::printf("%-12s %14llu %14llu %14.5f %11.1fx\n", name,
                    static_cast<unsigned long long>(prog),
                    static_cast<unsigned long long>(fixed),
                    1.0 / ratio, ratio);
        geo_sum += std::log(ratio);
        ++count;
    };

    // Working sets sized at twice the flash (steady churn), per the
    // lifetime experiment's intent of a fixed access rate.
    const double micro_scale = 4096.0 / 262144.0;
    for (const auto& cfg : table4MicroConfigs(micro_scale)) {
        if (cfg.name == "exp2")
            continue; // the paper's Figure 12 lists nine workloads
        evaluate(cfg.name.c_str(), makeSynthetic(cfg),
                 makeSynthetic(cfg));
    }
    for (const char* name : {"WebSearch1", "WebSearch2", "Financial1",
                             "Financial2"}) {
        const MacroConfig base = macroConfig(name, 1.0);
        const double scale = 4096.0 * 2048.0 /
            (static_cast<double>(base.readPages) * 2048.0);
        evaluate(name, makeMacro(macroConfig(name, scale)),
                 makeMacro(macroConfig(name, scale)));
    }

    std::printf("\nGeometric-mean lifetime extension: %.1fx "
                "(paper: ~20x on average)\n",
                std::exp(geo_sum / count));
    return 0;
}
