/**
 * @file
 * Ablation: the GC victim-quality threshold (`gcMinInvalidFraction`).
 *
 * A disk cache may evict what a storage log must copy. Low
 * thresholds behave like an FTL (always relocate: high copy traffic,
 * maximal occupancy); high thresholds evict cold-valid blocks
 * through flushes instead. This sweep exposes the trade-off the
 * default (0.25) balances.
 */

#include <cstdio>

#include "core/flash_cache.hh"
#include "obs/cli.hh"
#include "obs/metrics.hh"
#include "util/log.hh"
#include "workload/macro.hh"

using namespace flashcache;

namespace {

/** Exporter flags; the last sweep point feeds the snapshots. */
obs::CliOptions obsOpts;

void
run(double threshold, bool last)
{
    CellLifetimeModel lifetime;
    const FlashGeometry geom = FlashGeometry::forMlcCapacity(mib(32));
    FlashDevice device(geom, FlashTiming(), lifetime, 9);
    FlashMemoryController ctrl(device);
    FixedLatencyStore store;

    FlashCacheConfig cfg;
    cfg.gcMinInvalidFraction = threshold;
    FlashCache cache(ctrl, store, cfg);

    auto gen = makeMacro(macroConfig("dbt2", 0.125));
    Rng rng(31);
    for (int i = 0; i < 600000; ++i) {
        const TraceRecord r = gen->next(rng);
        if (r.isWrite)
            cache.write(r.lba);
        else
            cache.read(r.lba);
    }

    const FlashCacheStats& st = cache.stats();
    std::printf("%10.2f %12.1f%% %14llu %14llu %12.1f%%\n", threshold,
                100.0 * st.fgst.reads.missRate(),
                static_cast<unsigned long long>(st.gcPageCopies),
                static_cast<unsigned long long>(st.evictionFlushes),
                100.0 * cache.occupancy());

    if (last && obsOpts.wantStats()) {
        obs::MetricRegistry reg;
        device.registerMetrics(reg);
        cache.registerMetrics(reg);
        ctrl.registerMetrics(reg);
        obs::writeStatsJson(reg, obsOpts.statsJson);
    }
}

} // namespace

int
main(int argc, char** argv)
{
    obsOpts = obs::CliOptions::parse(argc, argv);
    // The trace, the clients and the channels belong to the event
    // scheduler, and this sweep drives FlashCache directly with none.
    if (obsOpts.wantTrace() || obsOpts.clients || obsOpts.channels)
        fatal("ablation_gc_threshold runs without the event scheduler; "
              "--trace-out, --clients and --channels are not supported "
              "(--stats-json is)");
    std::printf("=== Ablation: GC victim threshold (dbt2 model, 32 MB "
                "flash) ===\n\n");
    std::printf("%10s %13s %14s %14s %13s\n", "threshold", "read miss",
                "GC copies", "evict flushes", "occupancy");
    const double sweep[] = {0.0, 0.10, 0.25, 0.50, 0.90};
    for (const double t : sweep)
        run(t, t == sweep[4]);
    std::printf("\nThreshold 0 = storage-log behaviour (copy "
                "everything, never evict); 0.9 = evict-mostly.\nThe "
                "default 0.25 keeps copies bounded without giving up "
                "occupancy.\n");
    return 0;
}
