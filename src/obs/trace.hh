/**
 * @file
 * Timeline tracer: spans on the event engine's virtual clock,
 * recorded into a preallocated ring buffer and exportable as Chrome
 * trace-event JSON (loadable in Perfetto / chrome://tracing).
 *
 * The tracer keeps no clock of its own. The event engine
 * (sched::ClosedLoop) records each span with its virtual start time
 * and duration on a numbered track: one track per contended resource
 * (service spans, foreground or background) and one per closed-loop
 * client (its requests with their compute, wait and service spans).
 * Queueing, channel overlap and background interference therefore
 * show on the same timeline that the sched.* metrics summarize.
 *
 * The ring buffer is sized once at construction and never allocates
 * while recording; when full it overwrites the oldest events and
 * counts the drops. Track names are set once, before recording.
 */

#ifndef FLASHCACHE_OBS_TRACE_HH
#define FLASHCACHE_OBS_TRACE_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "util/types.hh"

namespace flashcache {
namespace obs {

/**
 * One completed span. Names are string literals interned by the
 * caller (the tracer stores the pointer, not a copy).
 */
struct TraceEvent
{
    const char* name;
    const char* cat;
    Seconds start;
    Seconds dur;
    std::uint32_t track;
    std::uint32_t seq; ///< record order, for stable sorting
};

class Tracer
{
  public:
    /** @param capacity Ring size in events (preallocated). */
    explicit Tracer(std::size_t capacity = 1u << 16);

    Tracer(const Tracer&) = delete;
    Tracer& operator=(const Tracer&) = delete;

    /** Record a span of `dur` seconds from `start` on `track`. */
    void
    record(std::uint32_t track, const char* name, const char* cat,
           Seconds start, Seconds dur)
    {
        TraceEvent& e = ring_[head_];
        e.name = name;
        e.cat = cat;
        e.start = start;
        e.dur = dur;
        e.track = track;
        e.seq = seq_++;
        if (++head_ == ring_.size())
            head_ = 0;
        if (count_ < ring_.size())
            ++count_;
        else
            ++dropped_;
    }

    /** Name `track` in the export (allocates: call before recording). */
    void nameTrack(std::uint32_t track, std::string name);

    std::size_t size() const { return count_; }
    std::size_t capacity() const { return ring_.size(); }
    std::uint64_t dropped() const { return dropped_; }
    std::uint64_t recorded() const { return seq_; }

    /** Events oldest-first (copies out of the ring). */
    std::vector<TraceEvent> events() const;

    /**
     * Chrome trace-event JSON: each track is a process (pid = track,
     * named by a process_name record) and each span a complete
     * ("ph":"X") event with µs timestamps on the virtual clock.
     * Spans of one track that overlap (several servers of one
     * resource, a request and its stages) go to separate lanes
     * (tids), so no lane holds two overlapping spans.
     */
    void exportChromeTrace(std::ostream& os) const;

  private:
    std::vector<TraceEvent> ring_;
    std::vector<std::string> trackNames_;
    std::size_t head_ = 0;
    std::size_t count_ = 0;
    std::uint32_t seq_ = 0;
    std::uint64_t dropped_ = 0;
};

} // namespace obs
} // namespace flashcache

#endif // FLASHCACHE_OBS_TRACE_HH
