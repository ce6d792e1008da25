/**
 * @file
 * Figure 4: flash disk cache miss rate, unified vs split read/write
 * regions, executing the dbt2 (OLTP) trace model across flash sizes.
 *
 * The paper's dbt2 "disk trace" is the access stream below the OS
 * page cache, so the generator here runs through a DRAM primary disk
 * cache first (the full system simulator) and the flash tier sees
 * only PDC misses and write-backs — hot-head-stripped traffic, like
 * the original trace. The paper sweeps 128-640 MB of flash against
 * a 2 GB database with 256 MB of DRAM; everything is scaled by 1/8
 * (16-80 MB flash, 256 MB database, 16 MB DRAM) so each point
 * reaches steady state in seconds.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "sweep.hh"

using namespace flashcache;

namespace {

/** Adds one cache's registry and read miss rate to `v`, under
 *  `split.` or `unified.`. */
void
missRate(const bench::Sweep& sweep, bool split, unsigned mb,
         bench::Values& v)
{
    SystemConfig cfg;
    cfg.dramBytes = mib(16);
    cfg.flashBytes = mib(mb);
    cfg.flashConfig.splitRegions = split;
    cfg.seed = 5;
    auto gen = makeMacro(macroConfig("dbt2", 0.125));
    const std::string stack = split ? "split" : "unified";
    const auto sim = sweep.simulate(cfg, *gen, 3000000, v, stack);
    v.set(stack + ".read_miss_rate",
          sim->flashCache()->stats().fgst.reads.missRate());
}

} // namespace

int
main(int argc, char** argv)
{
    bench::Sweep sweep(bench::Stack::System, argc, argv);
    std::printf("=== Figure 4: miss rate, unified vs split flash disk "
                "cache (dbt2 model, 1/8 scale) ===\n\n");
    std::printf("%12s %14s %14s %14s\n", "flash size", "RW unified",
                "RW separate", "paper size");
    sweep.run(
        std::vector<unsigned>{16u, 32u, 48u, 64u, 80u},
        [](unsigned mb) { return bench::format("%u MB", mb); },
        [&](unsigned mb) {
            bench::Values v{{"flash_mb", mb}, {"paper_mb", mb * 8}};
            missRate(sweep, false, mb, v);
            missRate(sweep, true, mb, v);
            return v;
        },
        [](unsigned mb, const bench::Values& v) {
            std::printf("%9u MB %13.1f%% %13.1f%% %11u MB\n", mb,
                        v["unified.read_miss_rate"] * 100.0,
                        v["split.read_miss_rate"] * 100.0, mb * 8);
        });
    std::printf("\nExpected shape: the split cache's miss rate is lower "
                "and the gap grows with cache size\n(paper Figure 4: "
                "~50%% down to ~10-20%% over 128-640 MB).\n");
    return sweep.finish();
}
