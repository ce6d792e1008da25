/**
 * @file
 * Shared pieces of the repository benchmark: command-line options,
 * host timing, the result line, registry snapshots and fingerprints,
 * and the in-memory span log of traced runs.
 */

#ifndef PERFBENCH_HARNESS_HH
#define PERFBENCH_HARNESS_HH

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hh"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
nsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::nano>(b - a).count();
}

/**
 * Host cost of one Clock::now() call. A timed interval includes about
 * one call's worth of it, and the code around the interval pays the
 * other; traced runs subtract both from the layers they split.
 */
double clockCostNs();

/** Parsed command line. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Directory for restart snapshots and span files. */
    std::string outDir = ".";
};

/**
 * The benchmark's result: named metric values plus the count of
 * attempted and failed operations. A failed check is logged to
 * stderr, counts as one failed operation and makes the run incorrect.
 * Units and the set each mode reports come from BENCHMARK.json, which
 * run.py applies.
 */
class Report
{
  public:
    void setValues(const std::map<std::string, double>& values);
    void attempt(std::uint64_t n) { attempted_ += n; }
    /** Record a failed operation or check. */
    void fail(const std::string& what, std::uint64_t n = 1);
    /** fail(what) unless `ok`. */
    void check(bool ok, const std::string& what);

    bool correct() const { return failed_ == 0 && attempted_ > 0; }

    /** 1 - failed / attempted: meaningful only once every check has
     *  run. A failed check moves it by one op in millions; correct()
     *  is the failure gate. */
    double okOpsFrac() const;

    /** The single-line JSON result. */
    std::string json() const;

  private:
    std::map<std::string, double> values_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
};

/** Median of the samples (mean of the middle two when even). */
double median(std::vector<double> v);

/** Nearest-rank percentile p (0..100) of the samples. */
double percentile(std::vector<double> v, double p);

/** Every scalar metric of a registry, sampled at one instant. */
class Snapshot
{
  public:
    explicit Snapshot(const flashcache::obs::MetricRegistry& reg);
    /** Value of `name`; 0 when the registry had no such metric. */
    double operator[](std::string_view name) const;

  private:
    std::map<std::string, double, std::less<>> values_;
};

/**
 * FNV-1a hash over every registered scalar (name and exact bit
 * pattern of the value, in registration order) plus any extra
 * values the caller folds in (histogram bins). Equal fingerprints
 * mean bit-identical simulated statistics.
 */
class Fingerprint
{
  public:
    void add(std::string_view bytes);
    void add(double v);
    void add(std::uint64_t v);
    void addRegistry(const flashcache::obs::MetricRegistry& reg);
    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/**
 * Spans of a traced run, kept in a preallocated buffer and written
 * as Chrome trace-event JSON when the run ends. Spans past the
 * capacity are counted, not stored.
 */
class SpanLog
{
  public:
    explicit SpanLog(std::size_t capacity);

    /** Allocate a span id ahead of add(), for a parent whose
     *  children are recorded before it ends. */
    std::uint32_t reserveId() { return nextId_++; }

    /** Record a finished span under `id` (0 = allocate one). */
    void add(const char* name, Clock::time_point start,
             Clock::time_point end, std::uint32_t parent = 0,
             std::uint32_t id = 0);

    std::size_t size() const { return spans_.size(); }
    std::uint64_t dropped() const { return dropped_; }

    /** Write the spans; false when the file cannot be written. */
    bool write(const std::string& path) const;

  private:
    struct Span
    {
        const char* name;
        std::uint32_t id;
        std::uint32_t parent;
        double startUs;
        double durUs;
    };
    Clock::time_point origin_;
    std::vector<Span> spans_;
    std::size_t capacity_;
    std::uint32_t nextId_ = 1;
    std::uint64_t dropped_ = 0;
};

/**
 * Measured-phase metrics of the flash stack's layers (cache.*,
 * ecc.*, flash.*, disk.*) from the snapshots taken before and after
 * it, normalized by the `ops` requests it served.
 */
void flashLayerMetrics(const Snapshot& before, const Snapshot& after,
                       double ops, std::map<std::string, double>& out);

/** Check the ECC accounting identity:
 *  ecc.uncorrectable_reads == cache.uncorrectable + cache.ecc_retry_reads. */
void checkEccIdentity(const Snapshot& s, const std::string& tag,
                      Report& report);

/** Peak resident set of this process in MiB. */
double peakRssMb();

inline double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

/** What every repetition of a workload measures. */
struct RepBase
{
    /** Host seconds from the start to the measured phase. */
    double setupS = 0;
    /** Host seconds of each equal-work chunk of the warm-up, a part
     *  of setupS. */
    std::vector<double> warmChunkS;
    /** Host ns per request of each chunk of the measured phase. */
    std::vector<double> chunkNsPerReq;
    /** Hash of the simulated statistics (see Fingerprint). */
    std::uint64_t fingerprint = 0;
    /** Simulated metrics; bit-identical on every repetition. */
    std::map<std::string, double> sim;
};

/** Median of one field over the repetitions. */
template <typename Rep, typename Owner>
double
medianOf(const std::vector<Rep>& reps, double Owner::*field)
{
    std::vector<double> v;
    for (const Rep& r : reps)
        v.push_back(r.*field);
    return median(v);
}

/** Median over the samples of every repetition pooled together. */
template <typename Rep, typename Owner>
double
pooledMedian(const std::vector<Rep>& reps,
             std::vector<double> Owner::*field)
{
    std::vector<double> v;
    for (const Rep& r : reps)
        v.insert(v.end(), (r.*field).begin(), (r.*field).end());
    return median(v);
}

/**
 * setup_s over the repetitions. Every repetition does the same work
 * in its i-th warm-up chunk, so each chunk counts at its median over
 * the repetitions, and the rest of the set-up (construction, the
 * drain after the last chunk) at its median. A burst of interference
 * in one repetition then does not move the result, while a slowdown
 * of any part of the set-up still does.
 */
template <typename Rep>
double
setupSeconds(const std::vector<Rep>& reps)
{
    std::size_t chunks = reps.front().warmChunkS.size();
    for (const Rep& r : reps)
        chunks = std::min(chunks, r.warmChunkS.size());
    double total = 0;
    std::vector<double> v;
    for (std::size_t i = 0; i < chunks; ++i) {
        v.clear();
        for (const Rep& r : reps)
            v.push_back(r.warmChunkS[i]);
        total += median(v);
    }
    v.clear();
    for (const Rep& r : reps) {
        double rest = r.setupS;
        for (std::size_t i = 0; i < chunks; ++i)
            rest -= r.warmChunkS[i];
        v.push_back(rest);
    }
    return total + median(v);
}

/**
 * Run `runRep(traced)` until opts.seconds have passed, at least 3
 * times. Traced runs make at least 4 and alternate untraced and
 * traced repetitions, so the tracing overhead is measured on the same
 * seed and host. Every repetition simulates the same seed, so every
 * fingerprint must agree. Returns the metric values shared by all
 * workloads; the caller adds its own and reports them.
 */
template <typename Rep, typename Fn>
std::map<std::string, double>
repeat(const Options& opts, Report& report, Fn&& runRep,
       std::vector<Rep>& plain, std::vector<Rep>& traced)
{
    const auto start = Clock::now();
    const unsigned minReps = opts.trace ? 4 : 3;
    const auto seed = static_cast<unsigned long long>(opts.seed);
    for (unsigned i = 0;; ++i) {
        const bool t = opts.trace && i % 2 == 1;
        Rep rep = runRep(t);
        std::printf("%s seed %llu rep %u%s: setup %.3f s, %.1f ns/req, "
                    "fingerprint %016llx\n",
                    opts.workload.c_str(), seed, i, t ? " (traced)" : "",
                    rep.setupS, median(rep.chunkNsPerReq),
                    static_cast<unsigned long long>(rep.fingerprint));
        std::fflush(stdout);
        (t ? traced : plain).push_back(std::move(rep));
        if (i + 1 >= minReps &&
            nsBetween(start, Clock::now()) * 1e-9 >= opts.seconds)
            break;
    }

    const Rep& first = plain.front();
    for (const auto* set : {&plain, &traced}) {
        for (const Rep& r : *set)
            report.check(r.fingerprint == first.fingerprint,
                         opts.workload + ": fingerprint differs between "
                                         "repetitions");
    }
    std::printf("fingerprint %s seed %llu: %016llx\n",
                opts.workload.c_str(), seed,
                static_cast<unsigned long long>(first.fingerprint));

    std::map<std::string, double> values = first.sim;
    if (!opts.trace) {
        values["peak_rss_mb"] = peakRssMb();
        values["host_ns_per_req"] = pooledMedian(plain, &Rep::chunkNsPerReq);
        values["setup_s"] = setupSeconds(plain);
    } else {
        values["host.trace_overhead_frac"] =
            pooledMedian(traced, &Rep::chunkNsPerReq) /
                pooledMedian(plain, &Rep::chunkNsPerReq) -
            1.0;
    }
    return values;
}

/** Write the traced run's spans next to its other outputs. */
void writeSpans(const Options& opts, const SpanLog& spans, Report& report);

} // namespace perfbench

#endif // PERFBENCH_HARNESS_HH
