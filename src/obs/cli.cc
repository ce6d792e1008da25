#include "obs/cli.hh"

#include <charconv>
#include <cstdint>
#include <fstream>
#include <limits>
#include <string_view>

#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "util/log.hh"

namespace flashcache {
namespace obs {

std::uint64_t
parseCount(const char* what, std::string_view text, std::uint64_t max)
{
    std::uint64_t v = 0;
    const char* const end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, v);
    if (text.empty() || ec != std::errc() || ptr != end || v == 0 ||
        v > max) {
        fatal(std::string(what) + " expects an integer in 1.." +
              std::to_string(max) + ", got '" + std::string(text) + "'");
    }
    return v;
}

CliOptions
CliOptions::parse(int& argc, char** argv)
{
    CliOptions opts;
    int out = 1;
    for (int i = 1; i < argc; ++i) {
        const std::string_view arg = argv[i];
        const auto takeValue = [&](const char* flag) -> const char* {
            if (i + 1 >= argc)
                fatal(std::string(flag) + " requires a value");
            return argv[++i];
        };
        if (arg == "--stats-json") {
            opts.statsJson = takeValue("--stats-json");
        } else if (arg == "--trace-out") {
            opts.traceOut = takeValue("--trace-out");
        } else if (arg == "--trace-events") {
            opts.traceEvents = parseCount(
                "--trace-events", takeValue("--trace-events"),
                std::numeric_limits<std::size_t>::max());
        } else if (arg == "--clients") {
            opts.clients = static_cast<unsigned>(parseCount(
                "--clients", takeValue("--clients"),
                std::numeric_limits<unsigned>::max()));
        } else if (arg == "--channels") {
            // Demands carry the channel index in 16 bits.
            opts.channels = static_cast<unsigned>(parseCount(
                "--channels", takeValue("--channels"),
                std::numeric_limits<std::uint16_t>::max()));
        } else {
            argv[out++] = argv[i];
        }
    }
    argc = out;
    return opts;
}

const char*
CliOptions::help()
{
    return "  --stats-json FILE    write a JSON metrics snapshot\n"
           "  --trace-out FILE     write a Chrome trace-event JSON\n"
           "  --trace-events N     trace ring capacity (default 65536)\n"
           "  --clients N          closed-loop clients (scheduler)\n"
           "  --channels N         independent flash channels\n";
}

namespace {

std::ofstream
openOut(const std::string& path)
{
    std::ofstream os(path);
    if (!os)
        fatal("cannot open '" + path + "' for writing");
    return os;
}

} // namespace

void
writeStatsJson(const MetricRegistry& reg, const std::string& path)
{
    std::ofstream os = openOut(path);
    reg.toJson(os);
    if (!os)
        fatal("error writing '" + path + "'");
}

void
writeTrace(const Tracer& tracer, const std::string& path)
{
    std::ofstream os = openOut(path);
    tracer.exportChromeTrace(os);
    if (!os)
        fatal("error writing '" + path + "'");
}

} // namespace obs
} // namespace flashcache
