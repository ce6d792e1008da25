/**
 * @file
 * Service-demand capture: the glue between the functional device
 * models and the event-driven scheduler.
 *
 * The device models (flash array, disk, DRAM, ECC engine) stay
 * synchronous — they compute a service latency per operation exactly
 * as before. When a DemandSink is attached they additionally record
 * each operation as a (resource, channel, service-time) demand, so
 * the scheduler can replay the request's resource usage against
 * per-resource queues and observe real contention. Background work
 * (GC, PDC write-back drains, reconfiguration copies) is marked by
 * entering a background scope: demands recorded inside it become
 * low-priority filler jobs that yield to foreground traffic.
 *
 * The sink is the one channel through which time leaves the device
 * models: the scheduler turns these demands into the virtual clock,
 * the sched.* metrics and the trace. With no sink attached every
 * hook is one null-pointer test, the same contract as the flash
 * fault injector.
 */

#ifndef FLASHCACHE_SCHED_DEMAND_HH
#define FLASHCACHE_SCHED_DEMAND_HH

#include <cstdint>
#include <vector>

#include "util/types.hh"

namespace flashcache {
namespace sched {

/** The contended resource classes of the storage hierarchy. */
enum class ResourceKind : std::uint8_t
{
    FlashChannel, ///< one NAND die/channel (geometry-mapped)
    Disk,         ///< the seek-aware disk head
    Ecc,          ///< a controller ECC engine unit
    DramPort,     ///< a DRAM port
};

/** One recorded device operation. */
struct Demand
{
    ResourceKind kind;
    std::uint16_t channel;  ///< flash channel index; 0 elsewhere
    Seconds service;
    bool background;        ///< recorded inside a background scope
};

/**
 * Collects the demands one functional request (or background batch)
 * emits. The buffer is reused across requests — steady state never
 * allocates once it has grown to the deepest request shape.
 */
class DemandSink
{
  public:
    void
    record(ResourceKind kind, std::uint16_t channel, Seconds service)
    {
        demands_.push_back({kind, channel, service, bgDepth_ > 0});
    }

    /// @name Background scoping (use BackgroundScope, not these).
    /// @{
    void pushBackground() { ++bgDepth_; }
    void popBackground() { --bgDepth_; }
    /// @}

    const std::vector<Demand>& demands() const { return demands_; }
    void clear() { demands_.clear(); }

  private:
    std::vector<Demand> demands_;
    int bgDepth_ = 0;
};

/**
 * RAII background scope. Null-safe: with no sink the constructor and
 * destructor are single branches, so functional-only users (unit
 * tests, the FlashCache-direct benches) pay nothing.
 */
class BackgroundScope
{
  public:
    explicit BackgroundScope(DemandSink* sink)
        : sink_(sink)
    {
        if (sink_)
            sink_->pushBackground();
    }

    ~BackgroundScope()
    {
        if (sink_)
            sink_->popBackground();
    }

    BackgroundScope(const BackgroundScope&) = delete;
    BackgroundScope& operator=(const BackgroundScope&) = delete;

  private:
    DemandSink* sink_;
};

} // namespace sched
} // namespace flashcache

#endif // FLASHCACHE_SCHED_DEMAND_HH
