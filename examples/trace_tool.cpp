/**
 * @file
 * Trace utility: generate any Table 4 workload to a CSV disk trace,
 * summarize an existing trace, or compute its LRU miss-rate curve —
 * the same analyses the Figure 4/7 benches run, exposed as a small
 * command-line tool.
 *
 * Usage:
 *   trace_tool gen <workload> <records> <out.csv> [scale]
 *   trace_tool summarize <trace.csv>
 *   trace_tool curve <trace.csv>
 *   trace_tool run <workload> <requests> [scale]
 *             [--stats-json FILE] [--trace-out FILE]
 *             [--trace-events N]
 *             [--save-state PREFIX] [--load-state PREFIX]
 *
 * `run` drives the workload through the full system simulator
 * (DRAM PDC + flash cache + disk) and prints the gem5-style stats
 * dump; --stats-json snapshots the metric registry and --trace-out
 * writes a Chrome trace (open in chrome://tracing or Perfetto).
 * --save-state persists the flash stack (<PREFIX>.dev +
 * <PREFIX>.cache) after the run, each file atomically (temp file +
 * rename), so a crash mid-save never leaves a torn file; a crash
 * between the two renames leaves a .dev and a .cache from different
 * saves, which --load-state rejects with a fatal error. --load-state
 * warm-starts from such a snapshot before the run.
 */

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <limits>
#include <string>

#include "obs/cli.hh"
#include "obs/trace.hh"
#include "sim/system_sim.hh"
#include "util/log.hh"
#include "workload/macro.hh"
#include "workload/stack_distance.hh"
#include "workload/trace.hh"

using namespace flashcache;

namespace {

/** Largest request or record count the tool accepts. */
constexpr std::uint64_t kMaxCount =
    std::numeric_limits<std::uint64_t>::max();

/** Strip `--flag VALUE` from argv; empty string when absent. */
std::string
takeFlag(int& argc, char** argv, const char* flag)
{
    for (int i = 1; i + 1 < argc; ++i) {
        if (std::strcmp(argv[i], flag) != 0)
            continue;
        const std::string value = argv[i + 1];
        for (int j = i; j + 2 < argc; ++j)
            argv[j] = argv[j + 2];
        argc -= 2;
        return value;
    }
    return std::string();
}

/**
 * The [scale] argument: the whole string must parse as a number.
 * pageCount() rejects the values no footprint can have (negative,
 * NaN, huge).
 */
double
parseScale(const char* text)
{
    double v = 0.0;
    const char* const end = text + std::strlen(text);
    const auto [ptr, ec] = std::from_chars(text, end, v);
    if (ec != std::errc() || ptr != end) {
        fatal(std::string("[scale] expects a number, got '") + text +
              "'");
    }
    return v;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage:\n"
                 "  trace_tool gen <workload> <records> <out.csv> "
                 "[scale]\n"
                 "  trace_tool summarize <trace.csv>\n"
                 "  trace_tool curve <trace.csv>\n"
                 "  trace_tool run <workload> <requests> [scale] "
                 "[--save-state PREFIX] [--load-state PREFIX] "
                 "[obs flags]\n"
                 "workloads (any case): uniform alpha1 alpha2 alpha3 "
                 "exp1 exp2 dbt2 SPECWeb99 WebSearch1 WebSearch2 "
                 "Financial1 Financial2\n"
                 "obs flags: %s\n",
                 obs::CliOptions::help());
    return 1;
}

} // namespace

int
main(int argc, char** argv)
{
    const obs::CliOptions obsOpts = obs::CliOptions::parse(argc, argv);
    const std::string saveState = takeFlag(argc, argv, "--save-state");
    const std::string loadState = takeFlag(argc, argv, "--load-state");
    if (argc < 3)
        return usage();
    const std::string cmd = argv[1];

    if (cmd == "run") {
        const std::string name = argv[2];
        const std::uint64_t requests = argc > 3
            ? obs::parseCount("<requests>", argv[3], kMaxCount) : 200000;
        const double scale = argc > 4 ? parseScale(argv[4]) : 0.05;
        auto gen = makeWorkloadByName(name, scale);
        if (!gen) {
            std::fprintf(stderr, "unknown workload: %s\n", name.c_str());
            return 1;
        }

        SystemConfig cfg;
        cfg.dramBytes = mib(32);
        cfg.flashBytes = mib(64);
        cfg.seed = 2026;
        if (obsOpts.clients)
            cfg.clients = obsOpts.clients;
        if (obsOpts.channels)
            cfg.flashChannels = obsOpts.channels;
        SystemSimulator sim(cfg);
        if (!loadState.empty() && !sim.loadFlashState(loadState)) {
            std::fprintf(stderr, "cannot load state from %s.{dev,cache}\n",
                         loadState.c_str());
            return 1;
        }
        if (obsOpts.wantTrace())
            sim.enableTracing(obsOpts.traceEvents);
        sim.run(*gen, requests);

        sim.dumpStats(std::cout);
        if (obsOpts.wantStats())
            obs::writeStatsJson(sim.metrics(), obsOpts.statsJson);
        if (obsOpts.wantTrace())
            obs::writeTrace(*sim.tracer(), obsOpts.traceOut);
        if (!saveState.empty()) {
            // Atomic (temp file + rename): an interrupted save leaves
            // any previous snapshot intact for the next --load-state.
            if (!sim.saveFlashState(saveState)) {
                std::fprintf(stderr, "state save to %s.{dev,cache} "
                             "failed\n", saveState.c_str());
                return 1;
            }
            std::printf("flash state saved to %s.{dev,cache}\n",
                        saveState.c_str());
        }
        return 0;
    }

    if (cmd == "gen") {
        if (argc < 5)
            return usage();
        const std::string name = argv[2];
        const std::uint64_t records =
            obs::parseCount("<records>", argv[3], kMaxCount);
        const double scale = argc > 5 ? parseScale(argv[5]) : 0.05;
        auto gen = makeWorkloadByName(name, scale);
        if (!gen) {
            std::fprintf(stderr, "unknown workload: %s\n", name.c_str());
            return 1;
        }
        Rng rng(2026);
        const Trace t = gen->generate(rng, records);
        saveTraceCsv(t, argv[4]);
        std::printf("wrote %llu records of %s (x%.3f scale) to %s\n",
                    static_cast<unsigned long long>(records),
                    gen->name().c_str(), scale, argv[4]);
        return 0;
    }

    if (cmd == "summarize") {
        const Trace t = loadTraceCsv(argv[2]);
        const TraceSummary s = summarizeTrace(t);
        std::printf("records        %llu\n",
                    static_cast<unsigned long long>(s.records));
        std::printf("write fraction %.1f%%\n",
                    100.0 * s.writeFraction());
        std::printf("distinct pages %llu (%.1f MB at 2 KB pages)\n",
                    static_cast<unsigned long long>(s.distinctPages),
                    static_cast<double>(s.workingSetBytes()) /
                        (1024 * 1024));
        std::printf("max LBA        %llu\n",
                    static_cast<unsigned long long>(s.maxLba));
        return 0;
    }

    if (cmd == "curve") {
        const Trace t = loadTraceCsv(argv[2]);
        StackDistance sd;
        for (const TraceRecord& r : t) {
            if (!r.isWrite)
                sd.access(r.lba);
        }
        std::printf("%14s %12s\n", "cache (pages)", "miss rate");
        for (std::uint64_t size = 64; size <= sd.distinctPages() * 2;
             size *= 2) {
            std::printf("%14llu %11.1f%%\n",
                        static_cast<unsigned long long>(size),
                        100.0 * sd.missRateAtSize(size));
        }
        return 0;
    }

    return usage();
}
