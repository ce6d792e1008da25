/**
 * @file
 * Figure 10: average throughput (relative bandwidth) as a function
 * of uniform BCH code strength, for SPECWeb99 and dbt2 on a 256 MB
 * DRAM + 1 GB flash system (scaled 1/4 here).
 *
 * Every flash page runs the same ECC strength, as the paper assumes;
 * strengths beyond the controller's 12-bit limit extrapolate the
 * accelerator model, exactly as the paper measured "code strengths
 * beyond our Flash memory controller's capabilities to fully capture
 * the performance trends".
 */

#include <cstdio>
#include <utility>
#include <vector>

#include "sweep.hh"

using namespace flashcache;

namespace {

double
throughputAt(const bench::Sweep& sweep, const char* workload,
             std::uint8_t strength, bench::Values& v,
             const char* prefix = "")
{
    SystemConfig cfg;
    cfg.dramBytes = mib(32);   // 256 MB / 8
    cfg.flashBytes = mib(128); // 1 GB / 8
    // Every page at one fixed strength.
    cfg.flashConfig.initialEccStrength = strength;
    cfg.flashConfig.maxEccStrength = strength;
    cfg.flashConfig.adaptiveReconfig = false;
    cfg.flashConfig.hotPageMigration = false;
    cfg.seed = 19;
    auto gen = makeMacro(macroConfig(workload, 0.125));
    // Warm the flash tier fully so throughput reflects the flash
    // access path (the paper's runs were warmed snapshots).
    return sweep.simulate(cfg, *gen, 2500000, v, prefix)
        ->stats().throughput();
}

} // namespace

int
main(int argc, char** argv)
{
    bench::Sweep sweep(bench::Stack::System, argc, argv);
    std::printf("=== Figure 10: relative bandwidth vs uniform BCH "
                "strength (x0.125 scale) ===\n\n");
    const std::vector<std::uint8_t> strengths =
        {0, 1, 5, 10, 15, 20, 30, 40, 50};
    std::vector<std::pair<const char*, std::uint8_t>> points;
    for (const char* wl : {"SPECWeb99", "dbt2"}) {
        for (const std::uint8_t t : strengths)
            points.push_back({wl, t});
    }

    double base = 0.0; // t = 1, run with each workload's first point
    sweep.run(
        points,
        [](const auto& p) {
            return bench::format("%s t=%u", p.first, p.second);
        },
        [&](const auto& p) {
            bench::Values v{{"strength", p.second}};
            if (p.second == strengths.front())
                base = throughputAt(sweep, p.first, 1, v, "base");
            v.set("relative_bandwidth",
                  throughputAt(sweep, p.first, p.second, v) / base);
            return v;
        },
        [&](const auto& p, const bench::Values& v) {
            if (p.second == strengths.front()) {
                std::printf("--- %s ---\n", p.first);
                std::printf("%10s %22s\n", "strength",
                            "relative bandwidth");
            }
            std::printf("%10u %22.3f\n", p.second,
                        v["relative_bandwidth"]);
            if (p.second == strengths.back())
                std::printf("\n");
        });
    std::printf("Expected shape: throughput degrades slowly with code "
                "strength once the ECC engine becomes\nthe binding "
                "resource. t=0 runs *below* t=1: unprotected pages die "
                "at the first bad cell and\nretire whole blocks "
                "(section 5.2), shrinking the cache. In our bottleneck "
                "model dbt2 stays\ndisk-bound across the sweep, so its "
                "curve is flatter than the paper's (see "
                "EXPERIMENTS.md).\n");
    return sweep.finish();
}
