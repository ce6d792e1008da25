/**
 * @file
 * Table 3: the simulated system configuration, printed from the
 * defaults the benches actually run with.
 */

#include <cstdio>

#include "sim/system_sim.hh"

using namespace flashcache;

int
main()
{
    const SystemConfig cfg;
    const FlashTiming ft{};
    const EccTimingModel ecc;

    std::printf("=== Table 3: configuration parameters ===\n\n");
    std::printf("%-22s 8 cores, single issue in-order (closed-loop "
                "streams)\n", "Processor type");
    std::printf("%-22s %u concurrent request streams, %.0f us mean "
                "compute\n", "Request model", cfg.clients,
                cfg.computeTime * 1e6);
    std::printf("%-22s 128-512 MB (1-4 DIMMs), tRC = %.0f ns\n", "DRAM",
                cfg.dramSpec.rowCycle * 1e9);
    std::printf("%-22s 256 MB - 2 GB\n", "NAND Flash");
    std::printf("%-22s read %.0f us (SLC) / %.0f us (MLC)\n", "",
                ft.slcReadLatency * 1e6, ft.mlcReadLatency * 1e6);
    std::printf("%-22s write %.0f us (SLC) / %.0f us (MLC)\n", "",
                ft.slcWriteLatency * 1e6, ft.mlcWriteLatency * 1e6);
    std::printf("%-22s erase %.1f ms (SLC) / %.1f ms (MLC)\n", "",
                ft.slcEraseLatency * 1e3, ft.mlcEraseLatency * 1e3);
    std::printf("%-22s %.0f us (t=2) to %.0f us (t=12)\n",
                "BCH code latency", ecc.decodeLatency(2).total() * 1e6,
                ecc.decodeLatency(12).total() * 1e6);
    std::printf("%-22s average access latency %.1f ms\n", "IDE disk",
                DiskSpec().avgAccessLatency * 1e3);
    std::printf("\nFlash cache policy defaults: split %d "
                "(read fraction %.2f), ECC t0=%u max=%u, wear k1=%.0f "
                "k2=%.0f threshold=%.0f\n",
                cfg.flashConfig.splitRegions,
                cfg.flashConfig.readRegionFraction,
                cfg.flashConfig.initialEccStrength,
                cfg.flashConfig.maxEccStrength, FbstEntry::kWearK1,
                FbstEntry::kWearK2, cfg.flashConfig.wearThreshold);
    return 0;
}
