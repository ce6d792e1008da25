/**
 * @file
 * Request-lifecycle tracer: scoped span events on the simulated
 * clock, recorded into a preallocated ring buffer and exportable as
 * Chrome trace-event JSON (loadable in Perfetto / chrome://tracing).
 *
 * The tracer owns a simulated clock. Leaf events (a flash array
 * read, an ECC decode, a disk seek) record their modeled latency and
 * advance the clock; enclosing spans (a cache read, a GC pass, a
 * whole request) measure clock-now minus clock-at-entry, so spans
 * nest exactly and timestamps are monotone by construction — a GC
 * stall or an ECC-latency spike is visually attributable to the leaf
 * that consumed the time.
 *
 * Cost model: instrumentation sites take a `Tracer*` and do nothing
 * when it is null (one predictable branch). Defining
 * `FLASHCACHE_TRACING=0` compiles the FC_* macros to nothing, which
 * is the configuration the bench uses to prove the serving path is
 * unaffected. The ring buffer is sized once at construction and
 * never allocates while recording; when full it overwrites the
 * oldest events and counts the drops.
 */

#ifndef FLASHCACHE_OBS_TRACE_HH
#define FLASHCACHE_OBS_TRACE_HH

#include <cstdint>
#include <ostream>
#include <vector>

#include "util/types.hh"

#ifndef FLASHCACHE_TRACING
#define FLASHCACHE_TRACING 1
#endif

namespace flashcache {
namespace obs {

/**
 * One completed event. Names are string literals interned by the
 * caller (the tracer stores the pointer, not a copy).
 */
struct TraceEvent
{
    const char* name;
    const char* cat;
    Seconds start;
    Seconds dur;
    std::uint32_t seq;   ///< record order, for stable sorting
    std::uint16_t depth; ///< span nesting depth at record time
};

class Tracer
{
  public:
    /** @param capacity Ring size in events (preallocated). */
    explicit Tracer(std::size_t capacity = 1u << 16);

    Tracer(const Tracer&) = delete;
    Tracer& operator=(const Tracer&) = delete;

    /// @name Simulated clock.
    /// @{
    Seconds now() const { return now_; }
    void advance(Seconds dt) { now_ += dt; }
    /// @}

    /** Record a leaf op of modeled duration `dur` and advance the
     *  clock past it. */
    void
    leaf(const char* name, const char* cat, Seconds dur)
    {
        record(name, cat, now_, dur);
        now_ += dur;
    }

    /** Record a zero-duration marker at the current clock. */
    void instant(const char* name, const char* cat)
    {
        record(name, cat, now_, 0.0);
    }

    /** Open a span; returns the depth token SpanGuard hands back. */
    std::uint16_t
    enter()
    {
        return depth_++;
    }

    /** Close a span opened at `start` with `enter()`'s token. */
    void
    exit(const char* name, const char* cat, Seconds start,
         std::uint16_t depth)
    {
        depth_ = depth;
        record(name, cat, start, now_ - start, depth);
    }

    std::size_t size() const { return count_; }
    std::size_t capacity() const { return ring_.size(); }
    std::uint64_t dropped() const { return dropped_; }
    std::uint64_t recorded() const { return seq_; }

    /** Discard all events (clock keeps running). */
    void clear();

    /** Events oldest-first (copies out of the ring). */
    std::vector<TraceEvent> events() const;

    /**
     * Chrome trace-event JSON: complete ("ph":"X") events with µs
     * timestamps on the simulated clock, sorted by start time so
     * viewers nest them correctly; span depth is echoed in args.
     */
    void exportChromeTrace(std::ostream& os) const;

  private:
    void
    record(const char* name, const char* cat, Seconds start,
           Seconds dur)
    {
        record(name, cat, start, dur, depth_);
    }

    void
    record(const char* name, const char* cat, Seconds start,
           Seconds dur, std::uint16_t depth)
    {
        TraceEvent& e = ring_[head_];
        e.name = name;
        e.cat = cat;
        e.start = start;
        e.dur = dur;
        e.seq = seq_++;
        e.depth = depth;
        if (++head_ == ring_.size())
            head_ = 0;
        if (count_ < ring_.size())
            ++count_;
        else
            ++dropped_;
    }

    std::vector<TraceEvent> ring_;
    std::size_t head_ = 0;
    std::size_t count_ = 0;
    std::uint32_t seq_ = 0;
    std::uint64_t dropped_ = 0;
    std::uint16_t depth_ = 0;
    Seconds now_ = 0.0;
};

/**
 * RAII span: captures the clock and depth at construction, records
 * the enclosing event at destruction. Null-safe — with no tracer the
 * whole object is two dead stores.
 */
class SpanGuard
{
  public:
    SpanGuard(Tracer* t, const char* name, const char* cat)
        : t_(t), name_(name), cat_(cat)
    {
        if (t_) {
            start_ = t_->now();
            depth_ = t_->enter();
        }
    }

    ~SpanGuard()
    {
        if (t_)
            t_->exit(name_, cat_, start_, depth_);
    }

    SpanGuard(const SpanGuard&) = delete;
    SpanGuard& operator=(const SpanGuard&) = delete;

  private:
    Tracer* t_;
    const char* name_;
    const char* cat_;
    Seconds start_ = 0.0;
    std::uint16_t depth_ = 0;
};

} // namespace obs
} // namespace flashcache

/// @name Instrumentation macros — compiled out when FLASHCACHE_TRACING=0.
/// @{
#define FC_OBS_CONCAT2(a, b) a##b
#define FC_OBS_CONCAT(a, b) FC_OBS_CONCAT2(a, b)

#if FLASHCACHE_TRACING
#define FC_SPAN(tracer, name, cat)                                      \
    ::flashcache::obs::SpanGuard FC_OBS_CONCAT(fcSpan, __LINE__)(       \
        (tracer), (name), (cat))
#define FC_LEAF(tracer, name, cat, dur)                                 \
    do {                                                                \
        ::flashcache::obs::Tracer* fcT = (tracer);                      \
        if (fcT)                                                        \
            fcT->leaf((name), (cat), (dur));                            \
    } while (0)
#define FC_INSTANT(tracer, name, cat)                                   \
    do {                                                                \
        ::flashcache::obs::Tracer* fcT = (tracer);                      \
        if (fcT)                                                        \
            fcT->instant((name), (cat));                                \
    } while (0)
#else
#define FC_SPAN(tracer, name, cat)                                      \
    do {                                                                \
    } while (0)
// sizeof keeps a duration local that only feeds the leaf "used"
// without evaluating it.
#define FC_LEAF(tracer, name, cat, dur)                                 \
    do {                                                                \
        (void)sizeof(dur);                                              \
    } while (0)
#define FC_INSTANT(tracer, name, cat)                                   \
    do {                                                                \
    } while (0)
#endif
/// @}

#endif // FLASHCACHE_OBS_TRACE_HH
