#include "sim/system_sim.hh"

#include <algorithm>
#include <fstream>
#include <limits>
#include <ostream>

#include "obs/trace.hh"
#include "util/atomic_file.hh"
#include "util/log.hh"

namespace flashcache {

namespace {

/** Fraction of DRAM available to the PDC; the remainder holds the OS,
 *  the flash management tables (about 2% of the flash size, section
 *  3) and network buffers. */
constexpr double kPdcFraction = 0.85;

/** Cached page size. */
constexpr std::uint64_t kPageBytes = 2048;

/** Dirty PDC pages are written back in batches of this many. */
constexpr unsigned kWritebackBatch = 16;

/** Pages the PDC holds in `dram_bytes` of DRAM (at least 16). */
std::uint32_t
pdcPages(std::uint64_t dram_bytes)
{
    const auto pages = std::max<std::uint64_t>(
        static_cast<std::uint64_t>(kPdcFraction *
                                   static_cast<double>(dram_bytes))
            / kPageBytes, 16);
    if (pages > std::numeric_limits<std::uint32_t>::max())
        fatal("SystemConfig::dramBytes is too large for the PDC");
    return static_cast<std::uint32_t>(pages);
}

/** Adapts the DiskModel to the cache core's BackingStore interface. */
class DiskBackingStore : public BackingStore
{
  public:
    explicit DiskBackingStore(DiskModel& disk)
        : disk_(&disk)
    {
    }

    Seconds
    read(Lba lba) override
    {
        return disk_->access(lba, false);
    }

    Seconds
    write(Lba lba) override
    {
        return disk_->access(lba, false);
    }

  private:
    DiskModel* disk_;
};

} // namespace

SystemSimulator::SystemSimulator(const SystemConfig& config)
    : config_(config), dram_(config.dramBytes, config.dramSpec),
      disk_(DiskSpec(), config.seed * 7919 + 1), rng_(config.seed),
      pdc_(pdcPages(config.dramBytes)),
      // The OS lets dirty pages accumulate to a fraction of the page
      // cache before the flusher drains the coldest ones.
      pdcDirtyLimit_(std::max<std::uint64_t>(kWritebackBatch,
                                             pdc_.capacity() / 8))
{
    if (config.clients == 0)
        fatal("SystemConfig::clients must be positive");

    if (config.flashBytes > 0) {
        lifetime_ = std::make_unique<CellLifetimeModel>(config.wear);
        auto geom = FlashGeometry::forMlcCapacity(config.flashBytes);
        geom.numChannels = std::max(1u, config.flashChannels);
        flash_ = std::make_unique<FlashDevice>(geom, FlashTiming(),
                                               *lifetime_,
                                               config.seed * 31 + 5);
        controller_ = std::make_unique<FlashMemoryController>(*flash_);
        diskStore_ = std::make_unique<DiskBackingStore>(disk_);

        cache_ = std::make_unique<FlashCache>(*controller_, *diskStore_,
                                              config.flashConfig);
    }

    // Every device model below the PDC records its service demands
    // into the shared sink; run() hands each request's demands
    // through the channel to the closed loop, which replays them
    // through per-resource queues to produce the event-driven wall
    // clock.
    dram_.attachDemandSink(&sink_);
    disk_.attachDemandSink(&sink_);
    if (cache_) {
        flash_->attachDemandSink(&sink_);
        controller_->attachDemandSink(&sink_);
    }
    sched::SchedConfig sc;
    sc.clients = config.clients;
    sc.flashChannels = std::max(1u, config.flashChannels);
    sched_ = std::make_unique<sched::ClosedLoop>(sc);

    registerAllMetrics();
}

SystemSimulator::~SystemSimulator() = default;

void
SystemSimulator::registerAllMetrics()
{
    registry_.counter("system.requests", "requests served",
                      &stats_.requests);
    registry_.counter("system.wall_clock", "simulated seconds",
                      &stats_.wallClock);
    registry_.gauge("system.throughput", "requests per second",
                    [this] { return stats_.throughput(); });
    registry_.histogram("system.request_latency",
                        "per-request latency (s)",
                        &stats_.requestLatency);

    registry_.ratio("pdc.read", "primary disk cache reads",
                    &stats_.pdcReads);
    registry_.counter("pdc.writebacks",
                      "dirty pages written below the PDC",
                      &stats_.writebacks);

    dram_.registerMetrics(registry_);
    disk_.registerMetrics(registry_);

    if (cache_) {
        flash_->registerMetrics(registry_);
        cache_->registerMetrics(registry_);
        controller_->registerMetrics(registry_);
    }

    sched_->registerMetrics(registry_);

    registry_.gauge("power.mem_read", "W",
                    [this] { return powerReport().memRead; });
    registry_.gauge("power.mem_write", "W",
                    [this] { return powerReport().memWrite; });
    registry_.gauge("power.mem_idle", "W",
                    [this] { return powerReport().memIdle; });
    registry_.gauge("power.flash", "W",
                    [this] { return powerReport().flash; });
    registry_.gauge("power.disk", "W",
                    [this] { return powerReport().disk; });
    registry_.gauge("power.total", "W",
                    [this] { return powerReport().total(); });
}

void
SystemSimulator::enableTracing(std::size_t capacity)
{
    tracer_ = std::make_unique<obs::Tracer>(capacity);
    sched_->attachTracer(tracer_.get());
}

void
SystemSimulator::readBelow(Lba lba)
{
    if (cache_)
        cache_->read(lba);
    else
        disk_.access(lba, false);
}

void
SystemSimulator::writeBelow(Lba lba)
{
    if (cache_)
        cache_->write(lba);
    else
        disk_.access(lba, false);
}

void
SystemSimulator::evictPdcPage()
{
    const Pdc::Victim victim = pdc_.evict();
    if (victim.dirty) {
        // Background write-back; does not delay the foreground
        // request, but occupies the lower levels.
        const sched::BackgroundScope bg(&sink_);
        writeBelow(victim.lba);
        ++stats_.writebacks;
    }
}

void
SystemSimulator::serve(const TraceRecord& r)
{
    if (!r.isWrite) {
        if (pdc_.touch(r.lba, false)) {
            dram_.read(kPageBytes);
            stats_.pdcReads.hit();
        } else {
            stats_.pdcReads.miss();
            if (pdc_.full())
                evictPdcPage();
            readBelow(r.lba);
            dram_.write(kPageBytes);
            pdc_.insert(r.lba, false);
        }
    } else {
        // Writes complete at DRAM speed; dirty data drains later.
        dram_.write(kPageBytes);
        if (!pdc_.touch(r.lba, true)) {
            if (pdc_.full())
                evictPdcPage();
            pdc_.insert(r.lba, true);
        }
        // Periodic write-back (section 5.1): once enough dirty pages
        // accumulate, the flusher drains the coldest ones in batches.
        if (pdc_.dirtyPages() >= pdcDirtyLimit_) {
            const sched::BackgroundScope bg(&sink_);
            for (unsigned i = 0;
                 i < kWritebackBatch && pdc_.dirtyPages() > 0; ++i) {
                writeBelow(pdc_.popDirty());
                ++stats_.writebacks;
            }
        }
    }
}

void
SystemSimulator::run(WorkloadGenerator& workload, std::uint64_t n)
{
    // Draw thread: each record, then its compute time, the RNG order
    // of a serial loop.
    const auto draw = [&] {
        DrawnRequest d;
        for (std::uint64_t i = 0; i < n; ++i) {
            d.record = workload.next(rng_);
            d.compute = rng_.exponential(1.0 / config_.computeTime);
            if (!draws_.push(d))
                return;
        }
    };
    // Calling thread: the functional model, in request order.
    const auto model = [&] {
        DrawnRequest d;
        while (draws_.pop(d)) {
            sink_.clear();
            serve(d.record);
            ++stats_.requests;
            if (!channel_.push(d.compute, sink_.demands()))
                return;
        }
    };
    // Engine thread: replays the k-th request's demands at its k-th
    // draw, the order a serial loop would use.
    const auto engine = [&] {
        const auto source = [this](Seconds& compute,
                                   std::span<const sched::Demand>& d) {
            return channel_.pop(compute, d);
        };
        const auto done = [this](Seconds compute, Seconds issue,
                                 Seconds completion) {
            // Storage latency as observed: service plus queueing.
            stats_.requestLatency.add(compute + (completion - issue));
        };
        sched_->run(source, done);
        // The scheduler's virtual time after the last event
        // (foreground completions plus background runoff) is the
        // run's wall clock.
        stats_.wallClock = sched_->wallClock();
    };
    // The model stage produces for the engine and consumes the draws;
    // the draw hop gives the draw stage the new thread.
    channel_.run(
        [&] { draws_.run(draw, model, BatchHandoff::NewThread::Producer); },
        engine);
}

PowerReport
SystemSimulator::powerReport() const
{
    PowerReport p;
    const Seconds wall = stats_.wallClock;
    if (wall <= 0.0)
        return p;
    const DramEnergy de = dram_.energyOver(wall);
    p.memRead = de.read / wall;
    p.memWrite = de.write / wall;
    p.memIdle = de.idle / wall;
    if (flash_)
        p.flash = flash_->energyOver(wall) / wall;
    p.disk = disk_.energyOver(wall) / wall;
    return p;
}


bool
SystemSimulator::saveFlashState(const std::string& prefix) const
{
    if (!cache_)
        fatal("saveFlashState requires a flash cache");
    return atomicWriteFile(prefix + ".dev",
                           [this](std::ostream& os) {
                               flash_->saveState(os);
                           }) &&
        atomicWriteFile(prefix + ".cache", [this](std::ostream& os) {
            cache_->saveState(os);
        });
}

bool
SystemSimulator::loadFlashState(const std::string& prefix)
{
    if (!cache_)
        fatal("loadFlashState requires a flash cache");
    std::ifstream dev(prefix + ".dev", std::ios::binary);
    std::ifstream cache(prefix + ".cache", std::ios::binary);
    if (!dev || !cache)
        return false;
    flash_->loadState(dev);
    cache_->loadState(cache);
    return dev.good() && cache.good();
}

void
SystemSimulator::writeStatsJson(std::ostream& os) const
{
    registry_.toJson(os);
}

void
SystemSimulator::dumpStats(std::ostream& os) const
{
    os << "---------- flashcache stats dump ----------\n";
    registry_.dumpText(os);
    os << "--------------------------------------------\n";
}

} // namespace flashcache
