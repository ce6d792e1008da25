#include "workload/trace.hh"

#include <charconv>
#include <cstdio>
#include <fstream>
#include <string_view>
#include <unordered_set>

#include "util/log.hh"

namespace flashcache {

namespace {

/** Parse a whole "R,<lba>" or "W,<lba>" line; false if it is not one. */
bool
parseRecord(std::string_view line, TraceRecord& r)
{
    if (line.size() < 3 || (line[0] != 'R' && line[0] != 'W') ||
        line[1] != ',') {
        return false;
    }
    const char* end = line.data() + line.size();
    const auto [ptr, ec] = std::from_chars(line.data() + 2, end, r.lba);
    r.isWrite = line[0] == 'W';
    return ec == std::errc() && ptr == end;
}

} // namespace

void
saveTraceCsv(const Trace& trace, const std::string& path)
{
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f)
        fatal("cannot open trace file for writing: " + path);
    for (const TraceRecord& r : trace) {
        std::fprintf(f, "%c,%llu\n", r.isWrite ? 'W' : 'R',
                     static_cast<unsigned long long>(r.lba));
    }
    const bool failed = std::ferror(f) != 0;
    if (std::fclose(f) != 0 || failed)
        fatal("cannot write trace file: " + path);
}

Trace
loadTraceCsv(const std::string& path)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot open trace file for reading: " + path);
    Trace out;
    std::string line;
    TraceRecord r;
    while (std::getline(in, line)) {
        if (!parseRecord(line, r)) {
            fatal("bad record " + std::to_string(out.size() + 1) +
                  " in trace " + path + ": '" + line + "'");
        }
        out.push_back(r);
    }
    if (in.bad())
        fatal("cannot read trace file: " + path);
    return out;
}

TraceSummary
summarizeTrace(const Trace& trace)
{
    TraceSummary s;
    std::unordered_set<Lba> pages;
    for (const TraceRecord& r : trace) {
        ++s.records;
        if (r.isWrite)
            ++s.writes;
        pages.insert(r.lba);
        if (r.lba > s.maxLba)
            s.maxLba = r.lba;
    }
    s.distinctPages = pages.size();
    return s;
}

} // namespace flashcache
