/**
 * @file
 * Benchmark entry point:
 *
 *   flashbench --workload <dbt2|specweb99|financial1|crash_recover>
 *              --seed <n> --seconds <s> --trace <0|1> [--out-dir <d>]
 *
 * Prints progress and the determinism fingerprint, then one JSON
 * result line last. Exits 1 when any check failed.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workloads.hh"

using namespace perfbench;

namespace {

[[noreturn]] void
usage(const char* msg)
{
    std::fprintf(stderr,
                 "flashbench: %s\nusage: flashbench --workload <name> "
                 "--seed <n> --seconds <s> --trace <0|1> "
                 "[--out-dir <dir>]\n",
                 msg);
    std::exit(2);
}

std::uint64_t
parseUnsigned(const char* flag, const char* text)
{
    char* end = nullptr;
    const unsigned long long v = std::strtoull(text, &end, 10);
    if (!*text || *end || text[0] == '-')
        usage((std::string("bad value for ") + flag).c_str());
    return v;
}

Options
parse(int argc, char** argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const char* flag = argv[i];
        if (i + 1 >= argc)
            usage((std::string("missing value for ") + flag).c_str());
        const char* val = argv[++i];
        if (!std::strcmp(flag, "--workload")) {
            o.workload = val;
        } else if (!std::strcmp(flag, "--seed")) {
            o.seed = parseUnsigned(flag, val);
        } else if (!std::strcmp(flag, "--seconds")) {
            o.seconds = static_cast<double>(parseUnsigned(flag, val));
            if (o.seconds < 1 || o.seconds > 120)
                usage("--seconds must be 1..120");
        } else if (!std::strcmp(flag, "--trace")) {
            const std::uint64_t t = parseUnsigned(flag, val);
            if (t > 1)
                usage("--trace must be 0 or 1");
            o.trace = t == 1;
        } else if (!std::strcmp(flag, "--out-dir")) {
            o.outDir = val;
        } else {
            usage((std::string("unknown flag ") + flag).c_str());
        }
    }
    if (o.workload.empty())
        usage("--workload is required");
    return o;
}

} // namespace

int
main(int argc, char** argv)
{
    const Options opts = parse(argc, argv);
    Report report;
    if (isServeWorkload(opts.workload))
        runServe(opts, report);
    else if (opts.workload == "crash_recover")
        runCrashRecover(opts, report);
    else
        usage(("unknown workload " + opts.workload).c_str());
    // After every check has run.
    report.setValues({{"ok_ops_frac", report.okOpsFrac()}});

    std::printf("%s\n", report.json().c_str());
    std::fflush(stdout);
    return report.correct() ? 0 : 1;
}
