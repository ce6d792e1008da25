/**
 * @file
 * Shared command-line plumbing for the observability exporters so
 * trace_tool and every bench expose the same `--stats-json FILE` /
 * `--trace-out FILE` flags without duplicating the parsing.
 */

#ifndef FLASHCACHE_OBS_CLI_HH
#define FLASHCACHE_OBS_CLI_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace flashcache {
namespace obs {

class MetricRegistry;
class Tracer;

/** Observability flags recognised by every tool. */
struct CliOptions
{
    std::string statsJson; ///< --stats-json FILE (empty = off)
    std::string traceOut;  ///< --trace-out FILE (empty = off)
    std::size_t traceEvents = 1u << 16; ///< --trace-events N
    unsigned clients = 0;  ///< --clients N (0 = tool default)
    unsigned channels = 0; ///< --channels N (0 = tool default)

    bool wantStats() const { return !statsJson.empty(); }
    bool wantTrace() const { return !traceOut.empty(); }

    /**
     * Extract the flags above from argv, compacting it in place so
     * the caller's own argument handling never sees them. fatal()s
     * on a flag with a missing value, and on a count that is not a
     * plain positive decimal fitting its field (--channels <= 65535).
     */
    static CliOptions parse(int& argc, char** argv);

    /** One-line usage text for tools' --help output. */
    static const char* help();
};

/**
 * Parse a count argument: decimal digits only (no sign, space or
 * suffix), at least 1 and at most `max`. fatal()s otherwise, naming
 * `what` (the flag or argument) in the message.
 */
std::uint64_t parseCount(const char* what, std::string_view text,
                         std::uint64_t max);

/** Write the registry snapshot to `path` (fatal on I/O failure). */
void writeStatsJson(const MetricRegistry& reg, const std::string& path);

/** Write the Chrome trace to `path` (fatal on I/O failure). */
void writeTrace(const Tracer& tracer, const std::string& path);

} // namespace obs
} // namespace flashcache

#endif // FLASHCACHE_OBS_CLI_HH
