#include "obs/trace.hh"

#include <algorithm>
#include <utility>

#include "obs/json.hh"

namespace flashcache {
namespace obs {

Tracer::Tracer(std::size_t capacity)
    : ring_(capacity ? capacity : 1)
{
}

void
Tracer::nameTrack(std::uint32_t track, std::string name)
{
    if (track >= trackNames_.size())
        trackNames_.resize(track + 1);
    trackNames_[track] = std::move(name);
}

std::vector<TraceEvent>
Tracer::events() const
{
    std::vector<TraceEvent> out;
    out.reserve(count_);
    // Oldest event sits at head_ once the ring has wrapped.
    const std::size_t first =
        count_ == ring_.size() ? head_ : 0;
    for (std::size_t i = 0; i < count_; ++i)
        out.push_back(ring_[(first + i) % ring_.size()]);
    return out;
}

void
Tracer::exportChromeTrace(std::ostream& os) const
{
    std::vector<TraceEvent> evs = events();
    // Per track in start order, longer spans first, so a request
    // takes its lane before the stages it encloses.
    std::stable_sort(evs.begin(), evs.end(),
                     [](const TraceEvent& a, const TraceEvent& b) {
                         if (a.track != b.track)
                             return a.track < b.track;
                         if (a.start != b.start)
                             return a.start < b.start;
                         if (a.dur != b.dur)
                             return a.dur > b.dur;
                         return a.seq < b.seq;
                     });

    JsonWriter w(os, 0);
    w.beginObject();
    w.member("displayTimeUnit", "ms");
    w.key("traceEvents");
    w.beginArray();
    // One process per named track, listed in track order.
    const auto metadata = [&w](const char* record, std::int64_t pid,
                               const char* arg, auto value) {
        w.beginObject();
        w.member("name", record);
        w.member("ph", "M");
        w.member("pid", pid);
        w.member("tid", 0);
        w.key("args");
        w.beginObject();
        w.member(arg, value);
        w.endObject();
        w.endObject();
    };
    for (std::size_t t = 0; t < trackNames_.size(); ++t) {
        if (trackNames_[t].empty())
            continue;
        const auto pid = static_cast<std::int64_t>(t);
        metadata("process_name", pid, "name",
                 std::string_view(trackNames_[t]));
        metadata("process_sort_index", pid, "sort_index", pid);
    }

    // Greedy lane packing: each span takes the lowest lane whose last
    // span has ended. Request and wait spans are differences of two
    // event times, so they may end an ulp past the next span's start;
    // a picosecond of slack keeps that rounding from opening a lane.
    constexpr Seconds kSlack = 1e-12;
    std::vector<Seconds> laneEnd;
    for (std::size_t i = 0; i < evs.size(); ++i) {
        const TraceEvent& e = evs[i];
        if (i == 0 || e.track != evs[i - 1].track)
            laneEnd.clear();
        std::size_t lane = 0;
        while (lane < laneEnd.size() && laneEnd[lane] > e.start + kSlack)
            ++lane;
        if (lane == laneEnd.size())
            laneEnd.push_back(0);
        laneEnd[lane] = e.start + e.dur;

        w.beginObject();
        w.member("name", e.name);
        w.member("cat", e.cat);
        w.member("ph", "X");
        w.member("ts", e.start * 1e6);
        w.member("dur", e.dur * 1e6);
        w.member("pid", static_cast<std::int64_t>(e.track));
        w.member("tid", static_cast<std::int64_t>(lane));
        w.endObject();
    }
    w.endArray();
    w.endObject();
    os << '\n';
}

} // namespace obs
} // namespace flashcache
