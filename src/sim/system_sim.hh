/**
 * @file
 * Full-system storage-hierarchy simulator (paper section 6.1).
 *
 * Replaces the M5 full-system setup with a closed-loop server model:
 * Table 3's 8 in-order cores become 8 concurrent request streams
 * whose per-request time is a compute component plus the storage
 * hierarchy access chain:
 *
 *   request -> DRAM primary disk cache (PDC, LRU)
 *           -> flash based disk cache (optional)
 *           -> hard disk drive
 *
 * Delivered throughput ("network bandwidth" in Figures 9/10) is
 * requests per second of simulated wall-clock; energy integrates the
 * DRAM read/write/idle split, flash, and disk power over the same
 * wall-clock, reproducing Figure 9's breakdown.
 *
 * Each run() is a three-stage pipeline, one thread per stage, joined
 * by two RequestChannels. A new draw thread owns the workload and the
 * RNG: it draws each record, then its compute time, and pushes both.
 * The calling thread owns the functional model (PDC, flash cache,
 * devices): it pops each drawn request, serves it and pushes its
 * compute time and device demands. A third thread owns the event
 * scheduler, the latency histogram and the tracer: it replays the
 * k-th request at the scheduler's k-th draw. The RNG is drawn in the
 * order a serial loop would draw it, and the model never reads the
 * virtual clock, so every result is bit-identical to that loop. The
 * model stays on the caller because it is what allocates as the
 * cache fills: on another thread those blocks would come from a
 * second malloc arena (+8 MB peak RSS on the specweb99 benchmark).
 * Exceptions from any of the three threads are rethrown from run()
 * after the joins.
 */

#ifndef FLASHCACHE_SIM_SYSTEM_SIM_HH
#define FLASHCACHE_SIM_SYSTEM_SIM_HH

#include <memory>
#include <string>

#include "core/flash_cache.hh"
#include "core/lru.hh"
#include "devices/disk.hh"
#include "devices/dram.hh"
#include "obs/metrics.hh"
#include "sched/scheduler.hh"
#include "sim/power_report.hh"
#include "sim/request_channel.hh"
#include "util/stats.hh"
#include "workload/synthetic.hh"

namespace flashcache {

namespace obs {
class Tracer;
} // namespace obs

/** One request as the draw stage hands it to the model. */
struct DrawnRequest
{
    TraceRecord record;
    Seconds compute = 0; ///< drawn think time before the request
};

/** System configuration (Table 3 defaults). */
struct SystemConfig
{
    /** Closed-loop clients driving the event scheduler (Table 3's 8
     *  single-issue in-order cores); must be positive. Each client
     *  computes (thinks), issues its request through the
     *  per-resource service queues, and draws the next one when it
     *  completes. */
    unsigned clients = 8;

    /** Independent flash channels: blocks are striped over them and
     *  ops on different channels overlap in the event scheduler. */
    unsigned flashChannels = 4;

    /** Mean per-request compute time before storage is touched. */
    Seconds computeTime = microseconds(40);

    /** DRAM size; Table 3 sweeps 128-512 MB (1-4 DIMMs). */
    std::uint64_t dramBytes = mib(512);

    /** Flash size; 0 = DRAM-only baseline. Table 3: 256 MB - 2 GB. */
    std::uint64_t flashBytes = 0;

    /** Policy knobs forwarded to the flash cache. */
    FlashCacheConfig flashConfig;

    /** Wear statistics for the flash cells. */
    WearParams wear;

    /** DRAM datasheet. The flash and disk models run their default
     *  FlashTiming and DiskSpec. */
    DramSpec dramSpec;

    std::uint64_t seed = 1;
};

/** Aggregate results of a simulation run. */
struct SystemStats
{
    std::uint64_t requests = 0;

    /** Event-driven wall clock: virtual time of the scheduler's last
     *  event (queueing delay, channel overlap and background runoff
     *  included). */
    Seconds wallClock = 0.0;

    RatioStat pdcReads;   ///< PDC hit/miss on reads
    std::uint64_t writebacks = 0;

    /** Per-request latency (compute + storage) in seconds, with no
     *  clamp below Histogram's 4.5 h ceiling. The engine thread
     *  writes it while the model thread writes the counters above,
     *  so it starts a cache line of its own. */
    alignas(64) Histogram requestLatency;

    /** Requests per second of wall clock. */
    double
    throughput() const
    {
        return wallClock > 0.0
            ? static_cast<double>(requests) / wallClock : 0.0;
    }
};

/**
 * The simulator. Construct, run a workload, then read stats and the
 * power report.
 */
class SystemSimulator
{
  public:
    explicit SystemSimulator(const SystemConfig& config);
    ~SystemSimulator();

    /** Drive n requests from the generator through the system (the
     *  three-stage pipeline described above). */
    void run(WorkloadGenerator& workload, std::uint64_t n);

    const SystemStats& stats() const { return stats_; }

    /** The event scheduler (resource queues + closed loop). */
    const sched::ClosedLoop& scheduler() const { return *sched_; }

    /** Figure 9 power breakdown over the run's wall-clock. */
    PowerReport powerReport() const;

    /** Every metric of the whole stack, registered at construction
     *  in export order. */
    const obs::MetricRegistry& metrics() const { return registry_; }

    /**
     * Attach a timeline tracer (ring of `capacity` events) to the
     * event scheduler, which records every op's service span per
     * resource and every request's compute, wait and service spans
     * per client on the virtual clock. Call before run(); replaces
     * any previous tracer.
     */
    void enableTracing(std::size_t capacity = 1u << 16);

    /** The attached tracer, or nullptr when tracing is off. */
    obs::Tracer* tracer() const { return tracer_.get(); }

    /** JSON snapshot of every registered metric (stable schema). */
    void writeStatsJson(std::ostream& os) const;

    /** Dump every counter of the whole stack in gem5-style
     *  "name  value  # description" lines (rendered from the
     *  registry, so the text and JSON exports always agree). */
    void dumpStats(std::ostream& os) const;

    /** Present when flashBytes > 0. */
    const FlashCache* flashCache() const { return cache_.get(); }
    FlashCache* flashCache() { return cache_.get(); }

    /// @name Flash-stack snapshot: one file, <prefix>.cache, holding
    /// the device section and the cache tables (FlashCache::saveState),
    /// written atomically (temp file, fsync, rename) so an interrupted
    /// save leaves the previous snapshot whole. Requires
    /// flashBytes > 0.
    /// @{
    bool saveFlashState(const std::string& prefix) const;
    bool loadFlashState(const std::string& prefix);
    /// @}

    const DiskModel& disk() const { return disk_; }
    const DramModel& dram() const { return dram_; }
    const SystemConfig& config() const { return config_; }

  private:
    /** Run one request through the functional model (cache state
     *  mutates, device demands land in the sink). */
    void serve(const TraceRecord& r);

    /** Handle a read below the PDC. */
    void readBelow(Lba lba);

    /** Write a dirty page below the PDC (to flash or disk). */
    void writeBelow(Lba lba);

    /** Evict the PDC's LRU page, writing it back if dirty. */
    void evictPdcPage();

    /** Register every layer's metrics into registry_. */
    void registerAllMetrics();

    SystemConfig config_;
    DramModel dram_;
    DiskModel disk_;

    /** The draw thread's RNG. It and the PDC each start a cache line
     *  of their own: the model thread writes the PDC's list heads and
     *  probe counters on every request. */
    alignas(64) Rng rng_;

    /** The primary disk cache: the cached pages in LRU order, and the
     *  dirty ones in the order they were written, so eviction and
     *  write-back both take the coldest page in O(1). Sized from
     *  dramBytes at construction, so serving never allocates. */
    alignas(64) Pdc pdc_;
    std::uint64_t pdcDirtyLimit_;

    /** Flash stack (optional). */
    std::unique_ptr<CellLifetimeModel> lifetime_;
    std::unique_ptr<FlashDevice> flash_;
    std::unique_ptr<FlashMemoryController> controller_;
    std::unique_ptr<BackingStore> diskStore_;
    std::unique_ptr<FlashCache> cache_;

    /** Demand capture shared by every device model below the PDC. */
    sched::DemandSink sink_;
    std::unique_ptr<sched::ClosedLoop> sched_;

    /** Carry drawn requests from the draw stage to the model, and
     *  (compute, demands) from the model to the engine. */
    RequestChannel<DrawnRequest> draws_;
    RequestChannel<Seconds> channel_;

    SystemStats stats_;
    obs::MetricRegistry registry_;
    std::unique_ptr<obs::Tracer> tracer_;
};

} // namespace flashcache

#endif // FLASHCACHE_SIM_SYSTEM_SIM_HH
