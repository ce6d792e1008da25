/**
 * @file
 * Figure 9: system memory + disk power breakdown and normalized
 * network bandwidth, comparing a DRAM-only configuration against an
 * equal-die-area DRAM+flash configuration:
 *
 *   dbt2:      512 MB DRAM  vs  256 MB DRAM + 1 GB flash
 *   SPECWeb99: 512 MB DRAM  vs  128 MB DRAM + 2 GB flash
 *
 * Workloads are the Table 4 macro models at 1/4 footprint scale
 * with every capacity ratio of the paper's setup preserved; the
 * DRAM device size scales along, so the idle-power ratio between
 * configurations reflects the paper's real 4-vs-2-vs-1 DIMM counts.
 */

#include <cstdio>
#include <vector>

#include "sweep.hh"

using namespace flashcache;

namespace {

/** One configuration of one workload; flash 0 is DRAM only. */
struct Config
{
    const char* workload;
    std::uint64_t dram;
    std::uint64_t flash;
};

// Table 3 memory sizes at 1/4 scale; device-count ratios (4 vs
// 2 vs 1 DIMMs) are preserved via the scaled device size.
constexpr double kScale = 0.25;

bench::Values
run(const bench::Sweep& sweep, const Config& c)
{
    SystemConfig cfg;
    cfg.dramBytes = c.dram;
    cfg.flashBytes = c.flash;
    cfg.seed = 13;
    // Server request work (parsing, transaction logic, network) —
    // the storage tier should bound throughput only in the
    // DRAM-only baseline, as in the paper's full-system runs.
    cfg.computeTime = milliseconds(1.5);
    // Scale the DRAM device size with the footprint so device-count
    // ratios (hence idle-power ratios) match the full-size setup.
    cfg.dramSpec.deviceBytes = static_cast<std::uint64_t>(
        static_cast<double>(cfg.dramSpec.deviceBytes) * kScale);
    auto gen = makeMacro(macroConfig(c.workload, kScale));
    bench::Values v;
    sweep.simulate(cfg, *gen, 4000000, v);
    // The flash row is normalized to the DRAM-only row before it.
    const bench::Values& base = c.flash ? sweep.rows().back().values : v;
    v.set("norm_bw", v["system.throughput"] / base["system.throughput"]);
    v.set("power_reduction", base["power.total"] / v["power.total"]);
    return v;
}

void
print(const Config& c, const bench::Values& v)
{
    if (!c.flash) {
        std::printf("\n--- %s (x%.2f scale) ---\n", c.workload, kScale);
        std::printf("%-34s %9s %9s %9s %9s %9s %9s %10s\n",
                    "configuration", "mem RD", "mem WR", "mem IDLE",
                    "flash", "disk", "total W", "norm. BW");
    }
    std::printf("%-34s %9.3f %9.3f %9.3f %9.3f %9.3f %9.3f %10.2f\n",
                c.flash ? "DRAM + Flash disk cache" : "DRAM only",
                v["power.mem_read"], v["power.mem_write"],
                v["power.mem_idle"], v["power.flash"], v["power.disk"],
                v["power.total"], v["norm_bw"]);
    if (c.flash)
        std::printf("power reduction: %.2fx\n", v["power_reduction"]);
}

} // namespace

int
main(int argc, char** argv)
{
    bench::Sweep sweep(bench::Stack::System, argc, argv);
    std::printf("=== Figure 9: memory+disk power breakdown and network "
                "bandwidth ===\n");
    sweep.run(
        std::vector<Config>{{"dbt2", mib(128), 0},
                            {"dbt2", mib(64), mib(256)},
                            {"SPECWeb99", mib(128), 0},
                            {"SPECWeb99", mib(32), mib(512)}},
        [](const Config& c) {
            return bench::format("%s %s", c.workload,
                                 c.flash ? "DRAM + flash" : "DRAM only");
        },
        [&](const Config& c) { return run(sweep, c); }, print);

    std::printf("\nExpected shape: the flash configuration cuts memory "
                "idle power (fewer DRAM devices) and\ndisk power (fewer "
                "disk accesses) for up to ~3x lower total at equal or "
                "better bandwidth.\n");
    return sweep.finish();
}
