/**
 * @file
 * Unified metric registry — the canonical naming and export layer
 * over every counter in the stack.
 *
 * Modules keep their cheap accumulation storage (the per-layer stat
 * structs increment plain fields on the hot path, which costs
 * nothing extra), and register each field here once at construction
 * under a stable dotted name (`system.*`, `pdc.*`, `cache.*`,
 * `controller.*`, `flash.*`, `ecc.*`, `power.*`). The
 * registry is the single source of truth for what a metric is
 * called, what it means, and how to read it; both exporters — the
 * gem5-style text dump and the JSON snapshot — render from it, so a
 * metric registered once appears everywhere.
 *
 * Read side only: sampling a gauge or serializing happens outside
 * the serving path. Registration order is the export order, which is
 * what makes the JSON schema's key order stable.
 */

#ifndef FLASHCACHE_OBS_METRICS_HH
#define FLASHCACHE_OBS_METRICS_HH

#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "util/stats.hh"
#include "util/types.hh"

namespace flashcache {
namespace obs {

/** What a registry entry measures. */
enum class MetricKind : std::uint8_t
{
    Counter,   ///< monotone count owned by a module (u64 or double)
    Gauge,     ///< computed on read
    Histogram, ///< distribution (bins + percentiles in exports)
};

/** One registered metric (histograms excluded from scalar visits). */
struct MetricDesc
{
    std::string name;
    std::string desc;
    MetricKind kind;
};

/**
 * The registry. Pointers/callbacks registered here must outlive the
 * registry (modules register fields of their own stat structs and
 * are destroyed after it, or the registry is rebuilt alongside).
 */
class MetricRegistry
{
  public:
    MetricRegistry() = default;
    MetricRegistry(const MetricRegistry&) = delete;
    MetricRegistry& operator=(const MetricRegistry&) = delete;

    /// @name Registration. Names must be unique; duplicates panic.
    /// @{
    void counter(std::string name, std::string desc,
                 const std::uint64_t* v);

    /** Floating counter: accumulated seconds/joules. */
    void counter(std::string name, std::string desc, const double* v);

    void gauge(std::string name, std::string desc,
               std::function<double()> fn);

    void histogram(std::string name, std::string desc,
                   const Histogram* h);

    /** Expands to `<prefix>_hits`, `_misses` and a `_hit_rate`
     *  gauge. */
    void ratio(const std::string& prefix, const std::string& desc,
               const RatioStat* r);
    /// @}

    std::size_t size() const { return entries_.size(); }
    bool has(std::string_view name) const;

    /** Sample one scalar metric by name; panics when the name is
     *  unknown or names a histogram. */
    double value(std::string_view name) const;

    /** Visit scalar metrics (counters + gauges) in registration
     *  order. */
    void visitScalars(
        const std::function<void(const MetricDesc&, double)>& fn) const;

    /**
     * JSON snapshot with stable key order (= registration order):
     *
     *   { "schema": "<schema>",
     *     "metrics": { "name": <number>, ...,
     *                  "histname": {"count":..., "p50":..., "p95":...,
     *                                "p99":..., "bins":[[lo,hi,n],..]} } }
     */
    void toJson(std::ostream& os,
                std::string_view schema = "flashcache-stats-v1") const;

    /** gem5-style `name  value  # description` lines. */
    void dumpText(std::ostream& os) const;

  private:
    struct Entry
    {
        MetricDesc meta;
        const std::uint64_t* u64 = nullptr;
        const double* f64 = nullptr;
        std::function<double()> fn;
        const Histogram* hist = nullptr;

        double scalar() const;
    };

    void add(Entry e);

    std::vector<Entry> entries_;
};

} // namespace obs
} // namespace flashcache

#endif // FLASHCACHE_OBS_METRICS_HH
