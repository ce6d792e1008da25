/**
 * @file
 * Hard disk drive model.
 *
 * Table 3 configures an IDE disk with a 4.2 ms average access
 * latency; section 6.1 uses laptop-drive power because the scaled
 * working sets fit a small disk. The model adds a light load-
 * dependent spread around the average (seek variation) and tracks
 * busy time for the power integration of Figure 9.
 */

#ifndef FLASHCACHE_DEVICES_DISK_HH
#define FLASHCACHE_DEVICES_DISK_HH

#include <cstdint>

#include "flash/flash_spec.hh"
#include "sched/demand.hh"
#include "util/rng.hh"
#include "util/types.hh"

namespace flashcache {

namespace obs {
class MetricRegistry;
} // namespace obs

/**
 * Average-latency disk with busy-time power accounting.
 */
class DiskModel
{
  public:
    explicit DiskModel(const DiskSpec& spec = DiskSpec(),
                       std::uint64_t seed = 1);

    /**
     * Perform one access.
     *
     * @param lba        Target address (drives the seek spread).
     * @param sequential True when it follows the previous address
     *                   (short seek).
     * @return access latency.
     */
    Seconds access(Lba lba, bool sequential);

    /** Attach (or detach with nullptr) a scheduler demand sink: each
     *  access is recorded as a Disk demand. Not owned. */
    void attachDemandSink(sched::DemandSink* sink) { demands_ = sink; }

    std::uint64_t accesses() const { return accesses_; }
    Seconds busyTime() const { return busy_; }

    /** Register `disk.*` metrics. */
    void registerMetrics(obs::MetricRegistry& reg) const;

    /** Energy across a wall-clock span: busy active + rest idle. */
    Joules energyOver(Seconds wall_clock) const;

    /** Mean power across a wall-clock span. */
    Watts
    powerOver(Seconds wall_clock) const
    {
        return wall_clock > 0 ? energyOver(wall_clock) / wall_clock : 0.0;
    }

  private:
    DiskSpec spec_;
    Rng rng_;
    Lba lastLba_ = 0;
    /** lastLba_ holds a real head position: false until the first
     *  access, so LBA 1 first does not take the sequential shortcut
     *  from the initial lastLba_ of 0. */
    bool seqValid_ = false;
    std::uint64_t accesses_ = 0;
    Seconds busy_ = 0.0;
    sched::DemandSink* demands_ = nullptr;
};

} // namespace flashcache

#endif // FLASHCACHE_DEVICES_DISK_HH
