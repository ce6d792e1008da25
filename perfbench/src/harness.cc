#include "harness.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>

#include <sys/resource.h>

namespace perfbench {

void
Report::setValues(const std::map<std::string, double>& values)
{
    for (const auto& [name, v] : values) {
        if (std::isfinite(v))
            values_[name] = v;
        else
            fail("metric " + name + " is not finite");
    }
}

void
Report::fail(const std::string& what, std::uint64_t n)
{
    std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
    failed_ += n;
}

void
Report::check(bool ok, const std::string& what)
{
    if (!ok)
        fail(what);
}

double
Report::okOpsFrac() const
{
    return 1.0 - ratio(static_cast<double>(failed_),
                       static_cast<double>(attempted_));
}

std::string
Report::json() const
{
    std::string out = "{\"correct\": ";
    out += correct() ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted_);
    out += ", \"failed\": " + std::to_string(failed_);
    out += ", \"values\": {";
    char num[64];
    for (auto it = values_.begin(); it != values_.end(); ++it) {
        std::snprintf(num, sizeof num, "%.17g", it->second);
        out += (it == values_.begin() ? "\"" : ", \"") + it->first +
            "\": " + num;
    }
    out += "}}";
    return out;
}

double
clockCostNs()
{
    constexpr int kCalls = 20000;
    double best = 1e300;
    for (int rep = 0; rep < 5; ++rep) {
        const auto t0 = Clock::now();
        for (int i = 0; i < kCalls; ++i)
            static_cast<void>(Clock::now());
        best = std::min(best, nsBetween(t0, Clock::now()) / kCalls);
    }
    return best;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
    const std::size_t k = static_cast<std::size_t>(
        std::clamp(rank, 1.0, static_cast<double>(v.size()))) - 1;
    std::nth_element(v.begin(), v.begin() + static_cast<long>(k), v.end());
    return v[k];
}

Snapshot::Snapshot(const flashcache::obs::MetricRegistry& reg)
{
    reg.visitScalars([this](const flashcache::obs::MetricDesc& d,
                            double v) { values_[d.name] = v; });
}

double
Snapshot::operator[](std::string_view name) const
{
    const auto it = values_.find(name);
    return it == values_.end() ? 0.0 : it->second;
}

void
Fingerprint::add(std::string_view bytes)
{
    for (const char c : bytes) {
        h_ ^= static_cast<unsigned char>(c);
        h_ *= 0x100000001b3ull;
    }
}

void
Fingerprint::add(double v)
{
    char bytes[sizeof v];
    std::memcpy(bytes, &v, sizeof v);
    add(std::string_view(bytes, sizeof bytes));
}

void
Fingerprint::add(std::uint64_t v)
{
    char bytes[sizeof v];
    std::memcpy(bytes, &v, sizeof v);
    add(std::string_view(bytes, sizeof bytes));
}

void
Fingerprint::addRegistry(const flashcache::obs::MetricRegistry& reg)
{
    reg.visitScalars([this](const flashcache::obs::MetricDesc& d,
                            double v) {
        add(std::string_view(d.name));
        add(v);
    });
}

SpanLog::SpanLog(std::size_t capacity)
    : origin_(Clock::now()), capacity_(capacity)
{
    spans_.reserve(capacity);
}

void
SpanLog::add(const char* name, Clock::time_point start,
             Clock::time_point end, std::uint32_t parent,
             std::uint32_t id)
{
    if (id == 0)
        id = nextId_++;
    if (spans_.size() >= capacity_) {
        ++dropped_;
        return;
    }
    spans_.push_back({name, id, parent, nsBetween(origin_, start) / 1e3,
                      nsBetween(start, end) / 1e3});
}

bool
SpanLog::write(const std::string& path) const
{
    std::ofstream os(path);
    if (!os)
        return false;
    os << "{\"traceEvents\":[";
    char buf[256];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        std::snprintf(buf, sizeof buf,
                      "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                      "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":"
                      "{\"id\":%u,\"parent\":%u}}",
                      i ? "," : "", s.name, s.startUs, s.durUs, s.id,
                      s.parent);
        os << buf;
    }
    os << "\n],\"otherData\":{\"dropped_spans\":" << dropped_ << "}}\n";
    return static_cast<bool>(os.flush());
}

void
flashLayerMetrics(const Snapshot& before, const Snapshot& after, double ops,
                  std::map<std::string, double>& out)
{
    auto d = [&](std::string_view name) {
        return after[name] - before[name];
    };
    out["cache.read_hit_rate"] =
        ratio(d("cache.read_hits"),
              d("cache.read_hits") + d("cache.read_misses"));
    out["cache.write_amplification"] =
        ratio(d("controller.writes"),
              d("cache.write_hits") + d("cache.write_misses"));
    out["cache.gc_copies_per_erase"] =
        ratio(d("cache.gc_copies"), d("cache.gc_erases"));
    out["cache.gc_runs_per_mreq"] = d("cache.gc_runs") / ops * 1e6;
    out["cache.evictions_per_mreq"] = d("cache.evictions") / ops * 1e6;
    out["ecc.busy"] = d("ecc.busy");
    out["ecc.corrected_reads_per_op"] = d("ecc.corrected_reads") / ops;
    out["ecc.bits_corrected"] = d("ecc.bits_corrected");
    out["flash.reads_per_req"] = d("flash.reads") / ops;
    out["flash.programs_per_req"] = d("flash.programs") / ops;
    out["flash.erases_per_req"] = d("flash.erases") / ops;
    out["disk.accesses_per_req"] = d("disk.accesses") / ops;
    out["sim_flash_programs_per_mreq"] = d("flash.programs") / ops * 1e6;
}

void
writeSpans(const Options& opts, const SpanLog& spans, Report& report)
{
    const std::string path = opts.outDir + "/spans-" + opts.workload + ".json";
    report.check(spans.write(path), "cannot write " + path);
    std::printf("spans: %zu kept, %llu dropped -> %s\n", spans.size(),
                static_cast<unsigned long long>(spans.dropped()),
                path.c_str());
}

void
checkEccIdentity(const Snapshot& s, const std::string& tag, Report& report)
{
    report.check(s["ecc.uncorrectable_reads"] ==
                     s["cache.uncorrectable"] + s["cache.ecc_retry_reads"],
                 tag + "ecc.uncorrectable_reads != cache.uncorrectable + "
                       "cache.ecc_retry_reads");
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

} // namespace perfbench
