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
#include <vector>

#include "sim/system_sim.hh"
#include "workload/macro.hh"

using namespace flashcache;

namespace {

double
throughputAt(const char* workload, std::uint8_t strength)
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
    SystemSimulator sim(cfg);
    auto gen = makeMacro(macroConfig(workload, 0.125));
    // Warm the flash tier fully so throughput reflects the flash
    // access path (the paper's runs were warmed snapshots).
    sim.run(*gen, 2500000);
    return sim.stats().throughput();
}

} // namespace

int
main()
{
    std::printf("=== Figure 10: relative bandwidth vs uniform BCH "
                "strength (x0.125 scale) ===\n\n");
    const std::vector<std::uint8_t> strengths =
        {0, 1, 5, 10, 15, 20, 30, 40, 50};

    for (const char* wl : {"SPECWeb99", "dbt2"}) {
        std::printf("--- %s ---\n", wl);
        std::printf("%10s %22s\n", "strength", "relative bandwidth");
        const double base = throughputAt(wl, 1);
        for (const std::uint8_t t : strengths) {
            std::printf("%10u %22.3f\n", t, throughputAt(wl, t) / base);
        }
        std::printf("\n");
    }
    std::printf("Expected shape: throughput degrades slowly with code "
                "strength once the ECC engine becomes\nthe binding "
                "resource. t=0 runs *below* t=1: unprotected pages die "
                "at the first bad cell and\nretire whole blocks "
                "(section 5.2), shrinking the cache. In our bottleneck "
                "model dbt2 stays\ndisk-bound across the sweep, so its "
                "curve is flatter than the paper's (see "
                "EXPERIMENTS.md).\n");
    return 0;
}
