/**
 * @file
 * crash_recover: the real-data stack, built from public classes —
 * FlashDevice(store_data), FlashMemoryController, FlashCache with
 * realData, and an in-memory PayloadBackingStore owned here.
 *
 * A soft read-error rate makes the BCH decoder correct real bits on
 * about one read in ten. Table 4's alpha1 generator drives the
 * readData/writeData calls, and every read is verified against the
 * last acknowledged bytes of its page. Then a scheduled power cut
 * tears a page mid-program, recover() rebuilds the tables from the
 * medium, and every page is read back and verified. This is the
 * only workload that runs the real ECC codec and the recovery scan;
 * it does not use the event scheduler.
 */

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <vector>

#include "controller/memory_controller.hh"
#include "core/flash_cache.hh"
#include "devices/disk.hh"
#include "fault/fault_injector.hh"
#include "util/log.hh"
#include "util/rng.hh"
#include "workload/synthetic.hh"
#include "workloads.hh"

using namespace flashcache;

namespace perfbench {

namespace {

constexpr std::uint32_t kPage = 2048;

/** 128 blocks x 16 frames: 4096 MLC pages (8 MiB of cache). */
constexpr std::uint32_t kBlocks = 128;
constexpr std::uint16_t kFrames = 16;
constexpr std::uint64_t kWarmOps = 16000;
constexpr std::uint64_t kMeasuredOps = 150000;
/** Calls per host-timing chunk of the warm-up and measured phase. */
constexpr std::uint64_t kChunk = 1000;
/** recover() runs per repetition, each over the same crashed medium. */
constexpr int kRecoveries = 15;
/** The cut lands on roughly this many page programs after arming. */
constexpr std::uint64_t kCutProgram = 400;
/** Transient bit-error rate per bit read: about 0.1 flipped bits per
 *  MLC page read (MLC sensing doubles the rate), so about one read in
 *  ten decodes real errors, far inside the ECC strength. */
constexpr double kSoftErrorRate = 3e-6;
constexpr std::uint8_t kEccStrength = 4;

/**
 * Table 4's alpha1 micro-benchmark (Zipf 0.8, 20% writes, a quarter of
 * them on read-hot pages, the rest in a write range above the read
 * pages) at 1/48 of its 512 MB footprint: 5461 read pages plus 1365
 * write pages, 1.67x the cache, so misses and evictions occur.
 */
SyntheticConfig
alpha1()
{
    for (const SyntheticConfig& c : table4MicroConfigs(1.0 / 48)) {
        if (c.name == "alpha1")
            return c;
    }
    panic("Table 4 has no alpha1 generator");
}

/** Logical pages the op stream touches. */
const std::uint64_t kLbas = makeSynthetic(alpha1())->workingSetPages();

/** Contents of version `v` of a page; version 0 (never written) is
 *  zeros, which is what the backing store holds initially. */
void
fillPage(std::uint8_t* out, Lba lba, std::uint32_t v)
{
    if (v == 0) {
        std::memset(out, 0, kPage);
        return;
    }
    std::uint64_t x = (lba << 32) ^ v ^ 0x9e3779b97f4a7c15ull;
    for (std::uint32_t i = 0; i < kPage; i += 8) {
        // splitmix64
        x += 0x9e3779b97f4a7c15ull;
        std::uint64_t z = x;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        z ^= z >> 31;
        std::memcpy(out + i, &z, 8);
    }
}

/**
 * In-memory disk: payloads in a flat arena, generation tags for
 * recovery, and DiskModel latencies (seek-aware) for timing and
 * power. Traced runs time every payload call.
 */
class BenchDisk : public PayloadBackingStore
{
  public:
    BenchDisk(std::uint64_t lbas, std::uint64_t seed)
        : bytes_(lbas * kPage), gen_(lbas), model_(DiskSpec(), seed)
    {
    }

    Seconds read(Lba lba) override { return model_.access(lba, false); }
    Seconds write(Lba lba) override { return model_.access(lba, false); }

    Seconds
    readData(Lba lba, std::uint8_t* out) override
    {
        const auto t0 = timing ? Clock::now() : Clock::time_point();
        if (valid(lba))
            std::memcpy(out, &bytes_[lba * kPage], kPage);
        else
            std::memset(out, 0, kPage);
        const Seconds lat = model_.access(lba, false);
        note(t0);
        return lat;
    }

    Seconds
    writeData(Lba lba, const std::uint8_t* data) override
    {
        const auto t0 = timing ? Clock::now() : Clock::time_point();
        const Seconds lat = store(lba, data);
        note(t0);
        return lat;
    }

    Seconds
    writeTagged(Lba lba, const std::uint8_t* data, std::uint64_t seq,
                bool& failed) override
    {
        const auto t0 = timing ? Clock::now() : Clock::time_point();
        failed = false;
        if (valid(lba))
            gen_[lba] = seq;
        maxGen_ = std::max(maxGen_, seq);
        const Seconds lat = store(lba, data);
        note(t0);
        return lat;
    }

    std::uint64_t
    generation(Lba lba) const override
    {
        return lba < gen_.size() ? gen_[lba] : 0;
    }

    std::uint64_t maxGeneration() const override { return maxGen_; }

    const DiskModel& model() const { return model_; }

    /** Calls with an LBA outside the store (a cache bug). */
    std::uint64_t badLbas = 0;
    /// @name Host time of payload calls (when `timing` is set).
    /// @{
    bool timing = false;
    double ns = 0.0;
    std::uint64_t calls = 0;
    /// @}

  private:
    bool
    valid(Lba lba)
    {
        if (lba < gen_.size())
            return true;
        ++badLbas;
        return false;
    }

    Seconds
    store(Lba lba, const std::uint8_t* data)
    {
        if (valid(lba))
            std::memcpy(&bytes_[lba * kPage], data, kPage);
        return model_.access(lba, false);
    }

    void
    note(Clock::time_point t0)
    {
        if (!timing)
            return;
        ns += nsBetween(t0, Clock::now());
        ++calls;
    }

    std::vector<std::uint8_t> bytes_;
    std::vector<std::uint64_t> gen_;
    std::uint64_t maxGen_ = 0;
    DiskModel model_;
};

FlashCacheConfig
cacheConfig()
{
    FlashCacheConfig c;
    c.realData = true;
    c.initialEccStrength = kEccStrength;
    return c;
}

/** The hardware (device, controller, disk) survives a power cut;
 *  the FlashCache object is DRAM state and is rebuilt. */
struct Stack
{
    explicit Stack(std::uint64_t seed)
        : lifetime(noWear()), disk(kLbas, seed * 7919 + 1)
    {
        FlashGeometry g;
        g.numBlocks = kBlocks;
        g.framesPerBlock = kFrames;
        device = std::make_unique<FlashDevice>(g, FlashTiming(), lifetime,
                                               seed * 31 + 5, 0.0,
                                               /*store_data=*/true);
        device->setSoftErrorRate(kSoftErrorRate);
        controller = std::make_unique<FlashMemoryController>(*device);
        cache = std::make_unique<FlashCache>(*controller, disk,
                                             cacheConfig());
    }

    static WearParams
    noWear()
    {
        WearParams w;
        w.nominalCycles = 1e9;
        return w;
    }

    /** Register flash.*, cache.*, controller.*, ecc.* and disk.*. */
    void
    registerMetrics(obs::MetricRegistry& reg) const
    {
        device->registerMetrics(reg);
        cache->registerMetrics(reg);
        controller->registerMetrics(reg);
        disk.model().registerMetrics(reg);
    }

    CellLifetimeModel lifetime;
    std::unique_ptr<FlashDevice> device;
    std::unique_ptr<FlashMemoryController> controller;
    BenchDisk disk;
    std::unique_ptr<FlashCache> cache;
};

/** The op stream with its ground truth: the newest acknowledged
 *  version of every page. */
class OpStream
{
  public:
    OpStream(Stack& s, std::uint64_t seed, Report& report)
        : s_(s), rng_(seed), gen_(makeSynthetic(alpha1())),
          version_(kLbas, 0), buf_(kPage), want_(kPage), report_(report)
    {
    }

    /** Draw and issue one op; returns its simulated latency. Throws
     *  PowerLossException when an armed cut fires. */
    Seconds
    step()
    {
        const auto g0 = timed ? Clock::now() : Clock::time_point();
        const TraceRecord op = gen_->next(rng_);
        const Lba lba = op.lba;
        const bool write = op.isWrite;
        if (write) {
            inflightLba = lba;
            inflightWrite = true;
            fillPage(buf_.data(), lba, version_[lba] + 1);
        }
        const auto t0 = Clock::now();
        if (timed)
            genNs += nsBetween(g0, t0);
        const CacheAccessResult r = write
            ? s_.cache->writeData(lba, buf_.data())
            : s_.cache->readData(lba, buf_.data());
        const auto t1 = Clock::now();
        const double ns = nsBetween(t0, t1);
        callNs += ns;
        (write ? writeNs : readNs) += ns;
        ++(write ? writes : reads);
        if (spans && (ops & 127) == 0)
            spans->add(write ? "cache.write_data" : "cache.read_data", t0,
                       t1);
        ++ops;
        if (write) {
            ++version_[lba];
            inflightWrite = false;
        } else {
            verify(lba, "read");
        }
        return r.latency;
    }

    /** Read `lba` and compare with its newest acknowledged version. */
    void
    verify(Lba lba, const char* what)
    {
        if (!inflightWrite || lba != inflightLba) {
            fillPage(want_.data(), lba, version_[lba]);
            if (std::memcmp(buf_.data(), want_.data(), kPage) != 0)
                report_.fail(std::string(what) + " of lba " +
                             std::to_string(lba) +
                             " returned unacknowledged bytes");
            return;
        }
        // The write the cut interrupted may surface as either side.
        fillPage(want_.data(), lba, version_[lba] + 1);
        if (std::memcmp(buf_.data(), want_.data(), kPage) == 0) {
            ++version_[lba];
        } else {
            fillPage(want_.data(), lba, version_[lba]);
            if (std::memcmp(buf_.data(), want_.data(), kPage) != 0)
                report_.fail("interrupted write of lba " +
                             std::to_string(lba) +
                             " surfaced as neither version");
        }
        inflightWrite = false;
    }

    /** After recovery: read back and verify every page. */
    void
    verifyAll()
    {
        for (Lba lba = 0; lba < kLbas; ++lba) {
            s_.cache->readData(lba, buf_.data());
            verify(lba, "post-recovery read");
        }
    }

    std::uint64_t ops = 0, reads = 0, writes = 0;
    double callNs = 0, readNs = 0, writeNs = 0, genNs = 0;
    bool timed = false;
    SpanLog* spans = nullptr;
    Lba inflightLba = 0;
    bool inflightWrite = false;

  private:
    Stack& s_;
    Rng rng_;
    std::unique_ptr<WorkloadGenerator> gen_;
    std::vector<std::uint32_t> version_;
    std::vector<std::uint8_t> buf_;
    std::vector<std::uint8_t> want_;
    Report& report_;
};

struct CrashRep : RepBase
{
    /** Host seconds of each recover() over the same crashed medium. */
    std::vector<double> recoverS;
    /// @name Traced repetitions only.
    /// @{
    double workloadNsPerReq = 0;
    double cacheReadUs = 0;
    double cacheWriteUs = 0;
    double cacheSelfUs = 0;
    double diskStoreNs = 0;
    double recoverUsPerPage = 0;
    double statsJsonMs = 0;
    /// @}
};

CrashRep
runRep(const Options& opts, bool traced, SpanLog& spans, Report& report)
{
    CrashRep rep;
    const auto tSetup = Clock::now();
    Stack s(opts.seed);
    auto reg = std::make_unique<obs::MetricRegistry>();
    s.registerMetrics(*reg);
    OpStream stream(s, opts.seed, report);
    Seconds simTime = 0;
    auto chunkStart = Clock::now();
    for (std::uint64_t i = 1; i <= kWarmOps; ++i) {
        simTime += stream.step();
        if (i % kChunk == 0) {
            const auto now = Clock::now();
            rep.warmChunkS.push_back(nsBetween(chunkStart, now) * 1e-9);
            chunkStart = now;
        }
    }
    s.cache->checkInvariants();
    const auto tMeasure = Clock::now();
    rep.setupS = nsBetween(tSetup, tMeasure) * 1e-9;
    if (traced)
        spans.add("setup", tSetup, tMeasure);
    report.attempt(kWarmOps);

    // Measured phase.
    const Snapshot s0(*reg);
    const Seconds t0 = simTime;
    const double flashE0 = s.device->energyOver(t0);
    const double diskE0 = s.disk.model().energyOver(t0);
    stream.callNs = stream.readNs = stream.writeNs = stream.genNs = 0;
    stream.reads = stream.writes = 0;
    stream.timed = traced;
    stream.spans = traced ? &spans : nullptr;
    s.disk.timing = traced;
    std::vector<double> lat;
    lat.reserve(kMeasuredOps);
    double chunkStartNs = 0;
    for (std::uint64_t i = 1; i <= kMeasuredOps; ++i) {
        lat.push_back(stream.step());
        simTime += lat.back();
        if (i % kChunk == 0) {
            rep.chunkNsPerReq.push_back((stream.callNs - chunkStartNs) /
                                        static_cast<double>(kChunk));
            chunkStartNs = stream.callNs;
        }
    }
    s.cache->checkInvariants();
    report.attempt(kMeasuredOps);
    const double M = static_cast<double>(kMeasuredOps);
    if (traced) {
        rep.workloadNsPerReq = stream.genNs / M - clockCostNs();
        rep.cacheReadUs = ratio(stream.readNs, static_cast<double>(stream.reads)) / 1e3;
        rep.cacheWriteUs =
            ratio(stream.writeNs, static_cast<double>(stream.writes)) / 1e3;
        rep.cacheSelfUs = (stream.callNs - s.disk.ns) / M / 1e3;
        rep.diskStoreNs = ratio(s.disk.ns, static_cast<double>(s.disk.calls));
    }
    stream.timed = false;
    stream.spans = nullptr;
    s.disk.timing = false;

    const Snapshot s1(*reg);
    const Seconds span = simTime - t0;
    auto& m = rep.sim;
    m["sim_throughput_rps"] = ratio(M, span);
    Fingerprint fp;
    fp.addRegistry(*reg);
    for (const double l : lat)
        fp.add(l);
    // Moved, not copied: a transient copy would make peak RSS depend
    // on where the allocator finds room for it.
    m["sim_lat_p99_ms"] = percentile(std::move(lat), 99) * 1e3;
    m["sim_power_w"] = ratio(s.device->energyOver(simTime) - flashE0 +
                                 s.disk.model().energyOver(simTime) - diskE0,
                             span);
    flashLayerMetrics(s0, s1, M, m);

    checkEccIdentity(s1, "crash_recover: ", report);
    report.check(s1["ecc.corrected_reads"] > s0["ecc.corrected_reads"],
                 "crash_recover: no corrected reads in the measured phase");

    {
        std::ostringstream json;
        const auto j0 = Clock::now();
        reg->toJson(json);
        const auto j1 = Clock::now();
        rep.statsJsonMs = nsBetween(j0, j1) * 1e-6;
        if (traced)
            spans.add("obs.to_json", j0, j1);
    }


    // Power cut: arm a one-shot mid-program cut and keep going until
    // it fires. The cache object (its DRAM tables) is then dropped.
    FaultPlan plan;
    plan.seed = opts.seed;
    plan.powerCutAtProgram = kCutProgram + opts.seed % 97;
    FaultInjector inj(plan);
    s.device->attachFaultInjector(&inj);
    bool cut = false;
    std::uint64_t cutOps = 0;
    try {
        for (; cutOps < 100 * kCutProgram; ++cutOps)
            stream.step();
    } catch (const PowerLossException&) {
        cut = true;
    }
    report.attempt(cutOps + 1);
    report.check(cut, "crash_recover: the power cut never fired");
    const double validAtCut = static_cast<double>(s.cache->validPages());
    inj.clearPowerLoss();
    s.device->attachFaultInjector(nullptr);
    reg.reset();

    // recover() erases garbage blocks as it scans, so every timed run
    // starts from a copy of the crashed medium. The copy is a file: an
    // in-memory one would make peak RSS depend on how its buffer grew.
    const std::string medium = opts.outDir + "/crashed-medium.dev";
    {
        std::ofstream os(medium, std::ios::binary);
        s.device->saveState(os);
        report.check(static_cast<bool>(os.flush()),
                     "crash_recover: cannot write " + medium);
    }
    for (int i = 0; i < kRecoveries; ++i) {
        std::ifstream is(medium, std::ios::binary);
        s.device->loadState(is);
        s.cache = std::make_unique<FlashCache>(*s.controller, s.disk,
                                               cacheConfig());
        const auto r0 = Clock::now();
        s.cache->recover();
        const auto r1 = Clock::now();
        rep.recoverS.push_back(nsBetween(r0, r1) * 1e-9);
        if (traced)
            spans.add("cache.recover", r0, r1);
    }
    std::error_code ec;
    std::filesystem::remove(medium, ec);
    s.cache->checkInvariants();
    const auto& rec = s.cache->stats().recovery;
    report.check(rec.scannedPages ==
                     rec.tornPages + rec.duplicatePages + rec.stalePages +
                         rec.uncorrectablePages + rec.recoveredPages,
                 "crash_recover: scan taxonomy does not partition the "
                 "scanned pages");
    report.check(rec.scannedPages > 0, "crash_recover: empty scan");
    report.check(rec.tornPages >= 1, "crash_recover: no torn page");
    m["recover_kept_frac"] =
        ratio(static_cast<double>(rec.recoveredPages), validAtCut);
    m["recovery.scanned_pages"] = static_cast<double>(rec.scannedPages);
    m["recovery.recovered_pages"] = static_cast<double>(rec.recoveredPages);
    m["recovery.torn_pages"] = static_cast<double>(rec.tornPages);
    m["recovery.uncorrectable_pages"] =
        static_cast<double>(rec.uncorrectablePages);
    rep.recoverUsPerPage = ratio(median(rep.recoverS) * 1e6,
                                 static_cast<double>(rec.scannedPages));

    stream.verifyAll();
    s.cache->checkInvariants();
    report.attempt(kLbas);
    report.check(s.disk.badLbas == 0,
                 "crash_recover: backing store saw out-of-range LBAs");

    obs::MetricRegistry after;
    s.registerMetrics(after);
    fp.addRegistry(after);
    rep.fingerprint = fp.value();
    return rep;
}

} // namespace

void
runCrashRecover(const Options& opts, Report& report)
{
    SpanLog spans(1u << 16);
    std::vector<CrashRep> plain, traced;
    auto values = repeat(
        opts, report, [&](bool t) { return runRep(opts, t, spans, report); },
        plain, traced);
    if (!opts.trace) {
        values["recover_s"] = pooledMedian(plain, &CrashRep::recoverS);
    } else {
        values["host.workload_ns_per_req"] =
            medianOf(traced, &CrashRep::workloadNsPerReq);
        values["host.cache_read_us"] = medianOf(traced, &CrashRep::cacheReadUs);
        values["host.cache_write_us"] =
            medianOf(traced, &CrashRep::cacheWriteUs);
        values["host.cache_self_us_per_op"] =
            medianOf(traced, &CrashRep::cacheSelfUs);
        values["host.disk_store_ns_per_call"] =
            medianOf(traced, &CrashRep::diskStoreNs);
        values["host.recover_us_per_page"] =
            medianOf(traced, &CrashRep::recoverUsPerPage);
        values["host.stats_json_ms"] = medianOf(traced, &CrashRep::statsJsonMs);
        writeSpans(opts, spans, report);
    }
    report.setValues(values);
}

} // namespace perfbench
