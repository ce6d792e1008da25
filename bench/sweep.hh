/**
 * @file
 * The sweep runner behind the simulation figure benches, and the
 * FlashCache-direct stack the cache sweeps share.
 *
 * A bench is a list of points, a function that runs one point and
 * returns its values (the registry scalars of every stack it builds
 * plus the bench's derived numbers) and a row printer. The runner
 * runs the points one after another, prints each row as its point
 * finishes and, given `--stats-json FILE`, writes every row in print
 * order plus the footer's summary values to one document:
 *
 *   { "schema": "flashcache-sweep-v1", "bench": "<binary name>",
 *     "points": [ {"label": "<row>",
 *                  "values": {"<name>": <number>, ...}}, ... ],
 *     "summary": {"<name>": <number>, ...} }
 *
 * Values keep the order they were set in; a stack's registry scalars
 * appear as `<prefix>.<metric>`.
 */

#ifndef FLASHCACHE_BENCH_SWEEP_HH
#define FLASHCACHE_BENCH_SWEEP_HH

#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <initializer_list>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/flash_cache.hh"
#include "obs/cli.hh"
#include "obs/json.hh"
#include "obs/metrics.hh"
#include "sim/system_sim.hh"
#include "util/atomic_file.hh"
#include "util/log.hh"
#include "workload/macro.hh"
#include "workload/synthetic.hh"

namespace flashcache {
namespace bench {

/** Named numbers in the order they were set. */
class Values
{
  public:
    Values() = default;
    Values(std::initializer_list<std::pair<std::string, double>> items)
    {
        for (const auto& [name, v] : items)
            set(name, v);
    }

    /** Set a new value; panics when `name` is already set. */
    void
    set(std::string name, double v)
    {
        for (const auto& item : items_) {
            if (item.first == name)
                panic("sweep value '" + name + "' set twice");
        }
        items_.emplace_back(std::move(name), v);
    }

    /** Every scalar of `reg`, named `<prefix>.<metric>` (the bare
     *  metric name when `prefix` is empty). */
    void
    add(const obs::MetricRegistry& reg, std::string_view prefix = {})
    {
        reg.visitScalars([&](const obs::MetricDesc& d, double v) {
            set(prefix.empty() ? d.name
                               : std::string(prefix) + "." + d.name,
                v);
        });
    }

    /** The value of `name`; panics when it was never set. */
    double
    operator[](std::string_view name) const
    {
        for (const auto& [n, v] : items_) {
            if (n == name)
                return v;
        }
        panic("sweep value '" + std::string(name) + "' was never set");
    }

    /** A count, for %llu columns. */
    unsigned long long
    count(std::string_view name) const
    {
        return static_cast<unsigned long long>((*this)[name]);
    }

    const auto& items() const { return items_; }

  private:
    std::vector<std::pair<std::string, double>> items_;
};

/** One printed row: its label and its point's values. */
struct Row
{
    std::string label;
    Values values;
};

/** printf into a std::string (row labels). */
[[gnu::format(printf, 1, 2)]] inline std::string
format(const char* fmt, ...)
{
    char buf[128];
    va_list args;
    va_start(args, fmt);
    std::vsnprintf(buf, sizeof(buf), fmt, args);
    va_end(args);
    return buf;
}

/** The stack a sweep drives, which decides the flags it takes. */
enum class Stack : std::uint8_t
{
    /** FlashCache with no event scheduler: --stats-json only. */
    CacheDirect,
    /** SystemSimulator: also --trace-out, --trace-events, --clients
     *  and --channels. */
    System,
};

class Sweep
{
  public:
    /** Parse the flags, fatal on one that `stack` does not take or
     *  on any other argument. The bench is named after the binary
     *  (argv[0]). */
    Sweep(Stack stack, int argc, char** argv)
        : bench_(std::filesystem::path(argv[0]).filename().string()),
          opts_(obs::CliOptions::parse(argc, argv))
    {
        // parse() leaves what it does not know in argv[1..argc).
        if (argc > 1)
            fatal(bench_ + ": unknown argument '" + argv[1] + "'");
        // The trace, the clients and the channels belong to the event
        // scheduler, and a FlashCache-direct sweep runs with none.
        if (stack == Stack::CacheDirect &&
            (opts_.wantTrace() || opts_.clients || opts_.channels)) {
            fatal(bench_ + " runs without the event scheduler; "
                  "--trace-out, --clients and --channels are not "
                  "supported (--stats-json is)");
        }
    }

    /**
     * Run the points in order: `run(point)` returns the point's
     * values, `print(point, values)` prints its row, and the row is
     * kept under `label(point)`.
     */
    template <typename Point, typename Label, typename Run,
              typename Print>
    void
    run(const std::vector<Point>& points, Label label, Run run,
        Print print)
    {
        for (const Point& p : points) {
            Values v = run(p);
            print(p, v);
            rows_.push_back({label(p), std::move(v)});
        }
    }

    /** The rows printed so far. */
    const std::vector<Row>& rows() const { return rows_; }

    /** The footer's values, written as the document's summary. */
    Values& summary() { return summary_; }

    /**
     * System sweeps: build a simulator from `cfg` with --clients and
     * --channels applied, run `n` requests of `gen`, write its trace
     * when --trace-out asks (the sweep's last run wins) and add its
     * registry scalars to `out` under `prefix`.
     *
     * @return The simulator, for the bench's derived numbers.
     */
    std::unique_ptr<SystemSimulator>
    simulate(SystemConfig cfg, WorkloadGenerator& gen, std::uint64_t n,
             Values& out, std::string_view prefix = {}) const
    {
        if (opts_.clients)
            cfg.clients = opts_.clients;
        if (opts_.channels)
            cfg.flashChannels = opts_.channels;
        auto sim = std::make_unique<SystemSimulator>(cfg);
        if (opts_.wantTrace())
            sim->enableTracing(opts_.traceEvents);
        sim->run(gen, n);
        if (opts_.wantTrace())
            obs::writeTrace(*sim->tracer(), opts_.traceOut);
        out.add(sim->metrics(), prefix);
        return sim;
    }

    /**
     * Write the document when --stats-json asks; fatal, leaving no
     * partial file, when it cannot be written.
     *
     * @return main()'s exit status.
     */
    int
    finish() const
    {
        if (!opts_.wantStats())
            return 0;
        const auto object = [](obs::JsonWriter& w, const Values& values) {
            w.beginObject();
            for (const auto& [name, v] : values.items())
                w.member(name, v);
            w.endObject();
        };
        if (!atomicWriteFile(opts_.statsJson, [&](std::ostream& os) {
                obs::JsonWriter w(os);
                w.beginObject();
                w.member("schema", "flashcache-sweep-v1");
                w.member("bench", std::string_view(bench_));
                w.key("points");
                w.beginArray();
                for (const Row& row : rows_) {
                    w.beginObject();
                    w.member("label", std::string_view(row.label));
                    w.key("values");
                    object(w, row.values);
                    w.endObject();
                }
                w.endArray();
                w.key("summary");
                object(w, summary_);
                w.endObject();
                os << '\n';
            })) {
            fatal("cannot write '" + opts_.statsJson + "'");
        }
        return 0;
    }

  private:
    std::string bench_;
    obs::CliOptions opts_;
    std::vector<Row> rows_;
    Values summary_;
};

/**
 * The FlashCache-direct stack: a cell lifetime model, one flash
 * device and its controller, a fixed-latency backing store and the
 * cache, with no DRAM tier and no event scheduler.
 */
struct CacheStack
{
    CellLifetimeModel lifetime;
    FlashDevice device;
    FlashMemoryController ctrl;
    FixedLatencyStore store;
    FlashCache cache;

    CacheStack(const FlashGeometry& geom, std::uint64_t device_seed,
               const FlashCacheConfig& cfg,
               const WearParams& wear = WearParams())
        : lifetime(wear), device(geom, FlashTiming(), lifetime, device_seed),
          ctrl(device), cache(ctrl, store, cfg)
    {
    }

    /**
     * Serve up to `n` records drawn from `gen`, stopping early once
     * the cache has failed or when `stop()` holds after a record.
     *
     * @return The records served.
     */
    std::uint64_t
    drive(WorkloadGenerator& gen, Rng& rng, std::uint64_t n,
          const std::function<bool()>& stop = {})
    {
        std::uint64_t served = 0;
        while (served < n && !cache.failed()) {
            const TraceRecord r = gen.next(rng);
            if (r.isWrite)
                cache.write(r.lba);
            else
                cache.read(r.lba);
            ++served;
            if (stop && stop())
                break;
        }
        return served;
    }

    /** `derived`, then the device's, cache's and controller's
     *  registry scalars under `prefix`. */
    Values
    values(Values derived, std::string_view prefix = {}) const
    {
        obs::MetricRegistry reg;
        device.registerMetrics(reg);
        cache.registerMetrics(reg);
        ctrl.registerMetrics(reg);
        derived.add(reg, prefix);
        return derived;
    }
};

/** A named workload; `make()` builds a fresh generator each call. */
struct WorkloadPoint
{
    std::string name;
    std::function<std::unique_ptr<WorkloadGenerator>()> make;
};

/**
 * Table 4's micro benchmarks at `micro_scale`, then the macro models
 * WebSearch1/2 and Financial1/2, each scaled to `macro_pages` read
 * pages.
 */
inline std::vector<WorkloadPoint>
table4Workloads(double micro_scale, double macro_pages)
{
    std::vector<WorkloadPoint> points;
    for (const auto& cfg : table4MicroConfigs(micro_scale))
        points.push_back({cfg.name, [cfg] { return makeSynthetic(cfg); }});
    for (const char* name : {"WebSearch1", "WebSearch2", "Financial1",
                             "Financial2"}) {
        const double scale = macro_pages /
            static_cast<double>(macroConfig(name, 1.0).readPages);
        points.push_back({name, [name, scale] {
                              return makeMacro(macroConfig(name, scale));
                          }});
    }
    return points;
}

} // namespace bench
} // namespace flashcache

#endif // FLASHCACHE_BENCH_SWEEP_HH
