/**
 * @file
 * The three serve workloads: Table 4 macro models driven through
 * SystemSimulator (DRAM PDC -> split flash cache -> disk, on the
 * event scheduler with 8 closed-loop clients and 4 flash channels).
 *
 *  - dbt2: Figure 9's DRAM+flash configuration. PDC hits dominate
 *    and the queues stay idle, so host cost is the event engine plus
 *    workload generation.
 *  - specweb99: Figure 9's second configuration. Read-mostly traffic
 *    served from flash through the channel and ECC queues; the flash
 *    never fills, so GC never runs.
 *  - financial1: write-dominated; heavy write-region GC and
 *    evictions with the disk nearly saturated, so storage bounds
 *    simulated throughput.
 *
 * Every simulated number is read through the simulator's public
 * accessors (metrics(), stats(), scheduler()) and differenced across
 * the measured phase; host numbers come from timing the calls.
 */

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <sstream>
#include <vector>

#include "sim/system_sim.hh"
#include "workload/macro.hh"
#include "workloads.hh"

using namespace flashcache;

namespace perfbench {

namespace {

/** Footprint scale of the Table 4 models (Figure 9 runs at 1/4). */
constexpr double kScale = 0.25;

struct ServeSpec
{
    const char* name;
    const char* macro; ///< Table 4 model name
    std::uint64_t dramMib;
    std::uint64_t flashMib;
    /** Requests before the measured phase: enough for the PDC and
     *  the flash cache to reach their steady hit rates. */
    std::uint64_t warmRequests;
    std::uint64_t measuredRequests;
};

constexpr ServeSpec kSpecs[] = {
    {"dbt2", "dbt2", 64, 256, 4000000, 2000000},
    {"specweb99", "SPECWeb99", 32, 512, 1500000, 1000000},
    {"financial1", "Financial1", 32, 128, 400000, 1000000},
};

const ServeSpec*
findSpec(const std::string& name)
{
    for (const ServeSpec& s : kSpecs) {
        if (name == s.name)
            return &s;
    }
    return nullptr;
}

SystemConfig
makeConfig(const ServeSpec& spec, std::uint64_t seed)
{
    SystemConfig cfg;
    cfg.dramBytes = mib(spec.dramMib);
    cfg.flashBytes = mib(spec.flashMib);
    cfg.seed = seed;
    cfg.computeTime = milliseconds(1.5);
    cfg.clients = 8;
    cfg.flashChannels = 4;
    // As in Figure 9: the DRAM device size scales with the footprint
    // so the idle-power ratio reflects the full-size DIMM counts.
    cfg.dramSpec.deviceBytes = static_cast<std::uint64_t>(
        static_cast<double>(cfg.dramSpec.deviceBytes) * kScale);
    return cfg;
}

/** Warm restarts timed per repetition. */
constexpr int kRestarts = 10;

/** Requests per host-timing chunk of the measured phase. */
constexpr std::uint64_t kChunk = 50000;

/**
 * Generator wrapper used in the warm-up and the measured phase. It
 * stamps the host clock every kChunk requests, so host times can be
 * medians over chunks that a burst of interference from other
 * processes cannot move. In traced runs it also times every next()
 * call and logs a sampled subset of them as spans under the run()
 * span.
 */
class MeteredGenerator : public WorkloadGenerator
{
  public:
    MeteredGenerator(WorkloadGenerator& inner, SpanLog* spans)
        : inner_(inner), spans_(spans)
    {
    }

    TraceRecord
    next(Rng& rng) override
    {
        if (calls % kChunk == 0) {
            const auto now = Clock::now();
            if (calls > 0)
                chunkNsPerReq.push_back(nsBetween(chunkStart_, now) /
                                        static_cast<double>(kChunk));
            chunkStart_ = now;
        }
        ++calls;
        if (!spans_)
            return inner_.next(rng);
        const auto t0 = Clock::now();
        const TraceRecord r = inner_.next(rng);
        const auto t1 = Clock::now();
        ns += nsBetween(t0, t1);
        if ((calls & 255) == 0)
            spans_->add("workload.next", t0, t1, parent);
        return r;
    }

    std::string name() const override { return inner_.name(); }

    std::uint64_t
    workingSetPages() const override
    {
        return inner_.workingSetPages();
    }

    /** Host ns per request of each complete chunk. */
    std::vector<double> chunkNsPerReq;
    std::uint64_t calls = 0;
    /** Traced runs: summed host time inside the inner next(). */
    double ns = 0.0;
    std::uint32_t parent = 0;

  private:
    WorkloadGenerator& inner_;
    SpanLog* spans_;
    Clock::time_point chunkStart_;
};

/** Per-group sched.* names and server counts. */
struct GroupInfo
{
    const char* name;
    double servers;
};

std::vector<GroupInfo>
groups(const sched::SchedConfig& sc)
{
    return {{"flash", static_cast<double>(sc.flashChannels)},
            {"disk", 1.0},
            {"ecc", static_cast<double>(sc.resolvedEccUnits())},
            {"dram", static_cast<double>(sc.dramPorts)}};
}

/**
 * p99 of the measured phase from the bin deltas of
 * system.request_latency, interpolated linearly inside the bin that
 * holds it (bins are 0.5 ms wide). Sets `clamped` when it lands in
 * the last bin, which also holds every larger sample.
 */
double
deltaP99Ms(const Histogram& h, const std::vector<std::uint64_t>& before,
           bool& clamped)
{
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < h.bins(); ++i)
        total += h.binCount(i) - before[i];
    const double target = 0.99 * static_cast<double>(total);
    double cum = 0.0;
    for (std::size_t i = 0; i < h.bins(); ++i) {
        const auto c = static_cast<double>(h.binCount(i) - before[i]);
        if (c > 0 && cum + c >= target) {
            clamped = i + 1 == h.bins();
            const double frac = (target - cum) / c;
            return (h.binLo(i) + frac * (h.binLo(i + 1) - h.binLo(i))) *
                1e3;
        }
        cum += c;
    }
    clamped = false;
    return 0.0;
}

/** Everything one repetition measured. */
struct ServeRep : RepBase
{
    /** Host seconds of each table-snapshot load. */
    std::vector<double> restartS;
    /// @name Traced repetitions only.
    /// @{
    double workloadNsPerReq = 0;
    double loopNsPerReq = 0;
    double statsJsonMs = 0;
    double restartUsPerPage = 0;
    /// @}
};

ServeRep
runRep(const ServeSpec& spec, const Options& opts, bool traced,
       SpanLog& spans, Report& report)
{
    ServeRep rep;
    const std::string tag = std::string(spec.name) + " seed " +
        std::to_string(opts.seed) + ": ";
    const auto tSetup = Clock::now();
    const SystemConfig cfg = makeConfig(spec, opts.seed);
    auto sim = std::make_unique<SystemSimulator>(cfg);
    auto macro = makeMacro(macroConfig(spec.macro, kScale));
    {
        MeteredGenerator warm(*macro, nullptr);
        sim->run(warm, spec.warmRequests);
        for (const double nsPerReq : warm.chunkNsPerReq)
            rep.warmChunkS.push_back(nsPerReq * kChunk * 1e-9);
    }
    const auto tMeasure = Clock::now();
    rep.setupS = nsBetween(tSetup, tMeasure) * 1e-9;
    if (traced)
        spans.add("setup", tSetup, tMeasure);
    report.attempt(spec.warmRequests);
    sim->flashCache()->checkInvariants();

    const obs::MetricRegistry& reg = sim->metrics();
    const Snapshot s0(reg);
    const Histogram& lat = sim->stats().requestLatency;
    std::vector<std::uint64_t> bins0(lat.bins());
    for (std::size_t i = 0; i < lat.bins(); ++i)
        bins0[i] = lat.binCount(i);

    const std::uint64_t n = spec.measuredRequests;
    MeteredGenerator metered(*macro, traced ? &spans : nullptr);
    metered.parent = traced ? spans.reserveId() : 0;
    const auto t0 = Clock::now();
    sim->run(metered, n);
    const auto t1 = Clock::now();
    rep.chunkNsPerReq = std::move(metered.chunkNsPerReq);
    if (traced) {
        spans.add("sim.run", t0, t1, 0, metered.parent);
        // Each timed next() pays two clock reads: about one inside
        // its interval and one outside it, in the loop's share.
        const double runNs = nsBetween(t0, t1);
        const double clockNs = clockCostNs() * static_cast<double>(n);
        rep.workloadNsPerReq =
            (metered.ns - clockNs) / static_cast<double>(n);
        rep.loopNsPerReq =
            (runNs - metered.ns - clockNs) / static_cast<double>(n);
    }
    report.attempt(n);
    sim->flashCache()->checkInvariants();

    const Snapshot s1(reg);
    auto d = [&](std::string_view name) { return s1[name] - s0[name]; };
    const double N = static_cast<double>(n);
    const double wall = d("system.wall_clock");
    // Gauges averaged over the whole timeline (power.*, queue depth)
    // become integrals when multiplied by the wall clock; the phase's
    // average is the integral's delta over the phase's time.
    auto phaseAverage = [&](const std::string& name) {
        return ratio(s1[name] * s1["system.wall_clock"] -
                         s0[name] * s0["system.wall_clock"],
                     wall);
    };

    // Output checks.
    const double done = d("sched.requests");
    if (done != N || d("system.requests") != N)
        report.fail(tag + "only " + std::to_string(done) + " of " +
                        std::to_string(n) + " requests completed",
                    n - static_cast<std::uint64_t>(std::min(done, N)));
    checkEccIdentity(s1, tag, report);

    // Simulated metrics of the measured phase.
    auto& m = rep.sim;
    bool clamped = false;
    m["sim_throughput_rps"] = ratio(N, wall);
    m["sim_lat_p99_ms"] = deltaP99Ms(lat, bins0, clamped);
    if (clamped)
        std::fprintf(stderr, "%sp99 landed in the clamping last bin\n",
                     tag.c_str());
    m["sim_power_w"] = phaseAverage("power.total");
    m["power.mem_idle"] = phaseAverage("power.mem_idle");
    const double pdcReads = d("pdc.read_hits") + d("pdc.read_misses");
    m["pdc.read_hit_rate"] = ratio(d("pdc.read_hits"), pdcReads);
    m["pdc.writebacks_per_req"] = d("pdc.writebacks") / N;
    m["sched.bg_jobs_per_req"] = d("sched.bg_jobs") / N;
    for (const GroupInfo& g : groups(sim->scheduler().config())) {
        const std::string b = std::string("sched.") + g.name;
        m[b + ".served_per_req"] = d(b + ".served") / N;
        m[b + ".utilization"] = ratio(d(b + ".busy"), g.servers * wall);
        m[b + ".queue_depth"] = phaseAverage(b + ".queue_depth");
        m[b + ".sojourn_p99_run"] = s1[b + ".sojourn_p99"] * 1e3;
    }
    flashLayerMetrics(s0, s1, N, m);

    // Workload self-checks: configuration drift fails loudly.
    const std::string w = spec.name;
    if (w == "dbt2") {
        report.check(m["pdc.read_hit_rate"] > 0.9,
                     tag + "pdc.read_hit_rate <= 0.9");
    } else if (w == "specweb99") {
        report.check(d("cache.gc_runs") == 0, tag + "GC ran");
        report.check(d("cache.read_hits") > 0, tag + "no flash hits");
    } else if (w == "financial1") {
        report.check(d("cache.gc_erases") > 0, tag + "no GC erases");
        report.check(m["sched.disk.utilization"] > 0.9,
                     tag + "disk utilization <= 0.9");
    }

    Fingerprint fp;
    fp.addRegistry(reg);
    for (std::size_t i = 0; i < lat.bins(); ++i)
        fp.add(static_cast<std::uint64_t>(lat.binCount(i)));
    rep.fingerprint = fp.value();

    {
        std::ostringstream json;
        const auto t0 = Clock::now();
        sim->writeStatsJson(json);
        const auto t1 = Clock::now();
        rep.statsJsonMs = nsBetween(t0, t1) * 1e-6;
        if (traced)
            spans.add("obs.write_stats_json", t0, t1);
        report.check(json.str().size() > 2, tag + "empty stats JSON");
    }

    // Warm restart from the table snapshot: the metadata-only stack's
    // restart path (crash_recover measures the medium scan instead).
    const std::string prefix = opts.outDir + "/restart-" + w;
    report.check(sim->saveFlashState(prefix), tag + "saveFlashState");
    const double valid =
        static_cast<double>(sim->flashCache()->validPages());
    sim.reset();
    // Each load goes into a fresh simulator; the median of the loads
    // keeps one slow file read from setting recover_s.
    for (int i = 0; i < kRestarts; ++i) {
        SystemSimulator restarted(cfg);
        const auto t0 = Clock::now();
        const bool loaded = restarted.loadFlashState(prefix);
        const auto t1 = Clock::now();
        report.check(loaded, tag + "loadFlashState");
        restarted.flashCache()->checkInvariants();
        rep.restartS.push_back(nsBetween(t0, t1) * 1e-9);
        if (traced)
            spans.add("restart.load_flash_state", t0, t1);
        const double kept =
            static_cast<double>(restarted.flashCache()->validPages());
        rep.sim["recover_kept_frac"] = ratio(kept, valid);
        rep.restartUsPerPage = ratio(rep.restartS.back() * 1e6, kept);
        report.check(kept == valid, tag + "restart lost pages");
    }
    std::error_code ec;
    std::filesystem::remove(prefix + ".dev", ec);
    std::filesystem::remove(prefix + ".cache", ec);
    return rep;
}

} // namespace

bool
isServeWorkload(const std::string& name)
{
    return findSpec(name) != nullptr;
}

void
runServe(const Options& opts, Report& report)
{
    const ServeSpec& spec = *findSpec(opts.workload);
    SpanLog spans(1u << 16);
    std::vector<ServeRep> plain, traced;
    auto values = repeat(
        opts, report,
        [&](bool t) { return runRep(spec, opts, t, spans, report); },
        plain, traced);
    if (!opts.trace) {
        values["recover_s"] = pooledMedian(plain, &ServeRep::restartS);
    } else {
        values["host.workload_ns_per_req"] =
            medianOf(traced, &ServeRep::workloadNsPerReq);
        values["host.sim_loop_ns_per_req"] =
            medianOf(traced, &ServeRep::loopNsPerReq);
        values["host.stats_json_ms"] =
            medianOf(traced, &ServeRep::statsJsonMs);
        values["host.recover_us_per_page"] =
            medianOf(traced, &ServeRep::restartUsPerPage);
        writeSpans(opts, spans, report);
    }
    report.setValues(values);
}

} // namespace perfbench
