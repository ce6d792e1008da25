#include "obs/metrics.hh"

#include <iomanip>
#include <sstream>

#include "obs/json.hh"
#include "util/log.hh"

namespace flashcache {
namespace obs {

double
MetricRegistry::Entry::scalar() const
{
    if (u64)
        return static_cast<double>(*u64);
    if (f64)
        return *f64;
    if (fn)
        return fn();
    panic("metric '" + meta.name + "' has no scalar source");
}

void
MetricRegistry::add(Entry e)
{
    if (has(e.meta.name))
        fatal("duplicate metric '" + e.meta.name + "'");
    entries_.push_back(std::move(e));
}

void
MetricRegistry::counter(std::string name, std::string desc,
                        const std::uint64_t* v)
{
    Entry e;
    e.meta = {std::move(name), std::move(desc), MetricKind::Counter};
    e.u64 = v;
    add(std::move(e));
}

void
MetricRegistry::counter(std::string name, std::string desc,
                        const double* v)
{
    Entry e;
    e.meta = {std::move(name), std::move(desc), MetricKind::Counter};
    e.f64 = v;
    add(std::move(e));
}

void
MetricRegistry::gauge(std::string name, std::string desc,
                      std::function<double()> fn)
{
    Entry e;
    e.meta = {std::move(name), std::move(desc), MetricKind::Gauge};
    e.fn = std::move(fn);
    add(std::move(e));
}

void
MetricRegistry::histogram(std::string name, std::string desc,
                          const Histogram* h)
{
    Entry e;
    e.meta = {std::move(name), std::move(desc), MetricKind::Histogram};
    e.hist = h;
    add(std::move(e));
}

void
MetricRegistry::ratio(const std::string& prefix, const std::string& desc,
                      const RatioStat* r)
{
    gauge(prefix + "_hits", desc + " (hits)",
          [r] { return static_cast<double>(r->hits()); });
    gauge(prefix + "_misses", desc + " (misses)",
          [r] { return static_cast<double>(r->misses()); });
    gauge(prefix + "_hit_rate", desc + " (hit rate)",
          [r] { return r->hitRate(); });
}

bool
MetricRegistry::has(std::string_view name) const
{
    for (const Entry& e : entries_) {
        if (e.meta.name == name)
            return true;
    }
    return false;
}

double
MetricRegistry::value(std::string_view name) const
{
    for (const Entry& e : entries_) {
        if (e.meta.name != name)
            continue;
        if (e.meta.kind == MetricKind::Histogram)
            panic("metric '" + e.meta.name +
                  "' is a histogram, not a scalar");
        return e.scalar();
    }
    panic("unknown metric '" + std::string(name) + "'");
}

void
MetricRegistry::visitScalars(
    const std::function<void(const MetricDesc&, double)>& fn) const
{
    for (const Entry& e : entries_) {
        if (e.meta.kind == MetricKind::Histogram)
            continue;
        fn(e.meta, e.scalar());
    }
}

void
MetricRegistry::toJson(std::ostream& os, std::string_view schema) const
{
    JsonWriter w(os);
    w.beginObject();
    w.member("schema", schema);
    w.key("metrics");
    w.beginObject();
    for (const Entry& e : entries_) {
        if (e.meta.kind != MetricKind::Histogram) {
            w.member(e.meta.name, e.scalar());
            continue;
        }
        const Histogram& h = *e.hist;
        w.key(e.meta.name);
        w.beginObject();
        w.member("count", h.total());
        w.member("p50", h.percentile(0.50));
        w.member("p95", h.percentile(0.95));
        w.member("p99", h.percentile(0.99));
        w.key("bins");
        w.beginArray();
        for (std::size_t i = 0; i < h.bins(); ++i) {
            if (!h.binCount(i))
                continue;
            w.beginArray();
            w.value(h.binLo(i));
            w.value(h.binLo(i + 1));
            w.value(h.binCount(i));
            w.endArray();
        }
        w.endArray();
        w.endObject();
    }
    w.endObject();
    w.endObject();
    os << '\n';
}

void
MetricRegistry::dumpText(std::ostream& os) const
{
    for (const Entry& e : entries_) {
        if (e.meta.kind == MetricKind::Histogram) {
            const Histogram& h = *e.hist;
            os << std::left << std::setw(36) << e.meta.name + ".count"
               << std::setw(18) << h.total()
               << "# " << e.meta.desc << " (samples)\n";
            std::ostringstream p50, p99;
            p50 << h.percentile(0.50);
            p99 << h.percentile(0.99);
            os << std::left << std::setw(36) << e.meta.name + ".p50"
               << std::setw(18) << p50.str()
               << "# " << e.meta.desc << " (median)\n";
            os << std::left << std::setw(36) << e.meta.name + ".p99"
               << std::setw(18) << p99.str()
               << "# " << e.meta.desc << " (99th pct)\n";
            continue;
        }
        // Counters backed by u64 print as integers; everything else
        // via ostream's default double formatting (matches the old
        // hand-written dumpStats lines).
        std::ostringstream val;
        if (e.u64)
            val << *e.u64;
        else
            val << e.scalar();
        os << std::left << std::setw(36) << e.meta.name
           << std::setw(18) << val.str()
           << "# " << e.meta.desc << "\n";
    }
}

} // namespace obs
} // namespace flashcache
