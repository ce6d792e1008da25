/**
 * @file
 * Disk access trace records and file IO.
 *
 * The paper's methodology (section 6) feeds disk traces — extracted
 * from M5 runs or from the UMass repository — into a lightweight
 * trace-driven flash disk cache simulator. This module defines the
 * in-memory record, a simple CSV on-disk format (compatible in
 * spirit with the UMass SPC format's fields we use), and helpers to
 * stream traces to and from disk.
 */

#ifndef FLASHCACHE_WORKLOAD_TRACE_HH
#define FLASHCACHE_WORKLOAD_TRACE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "util/types.hh"

namespace flashcache {

/** One disk-cache-level access: a page address and a direction. */
struct TraceRecord
{
    Lba lba = 0;
    bool isWrite = false;

    bool
    operator==(const TraceRecord& o) const
    {
        return lba == o.lba && isWrite == o.isWrite;
    }
};

/** An in-memory access trace. */
using Trace = std::vector<TraceRecord>;

/** Write a trace as "R,<lba>" / "W,<lba>" lines. Fatal on write
 *  errors. */
void saveTraceCsv(const Trace& trace, const std::string& path);

/** Read a trace written by saveTraceCsv: every line one record, the
 *  LBA a decimal that fits 64 bits. Fatal, naming the record, on any
 *  other line. */
Trace loadTraceCsv(const std::string& path);

/** Summary statistics of a trace. */
struct TraceSummary
{
    std::uint64_t records = 0;
    std::uint64_t writes = 0;
    std::uint64_t distinctPages = 0;
    Lba maxLba = 0;

    double
    writeFraction() const
    {
        return records ? static_cast<double>(writes) /
            static_cast<double>(records) : 0.0;
    }

    /** Footprint in bytes at the given page size. */
    std::uint64_t
    workingSetBytes(std::uint64_t page_bytes = 2048) const
    {
        return distinctPages * page_bytes;
    }
};

TraceSummary summarizeTrace(const Trace& trace);

} // namespace flashcache

#endif // FLASHCACHE_WORKLOAD_TRACE_HH
