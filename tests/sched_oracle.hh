/**
 * @file
 * Test-only oracle: the heap-only closed-loop event engine that
 * sched::ClosedLoop replaced. Every event — each background arrival,
 * each stage arrival, each completion — goes through the (time,
 * insertion sequence) min-heap, with no inline shortcuts. The
 * differential test runs it beside ClosedLoop on the same scripts and
 * demands bit-identical completions and statistics.
 *
 * Kept here, not in src/, so the shipped library has one engine.
 */

#ifndef FLASHCACHE_TESTS_SCHED_ORACLE_HH
#define FLASHCACHE_TESTS_SCHED_ORACLE_HH

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <deque>
#include <functional>
#include <span>
#include <vector>

#include "sched/demand.hh"
#include "sched/scheduler.hh"

namespace flashcache {
namespace sched {
namespace oracle {

/**
 * Engine source over a scripted draw that records into `sink`: the
 * sink is cleared before each draw and its demands handed over.
 */
inline ClosedLoop::Source
sinkSource(DemandSink& sink, std::function<bool(Seconds& compute)> draw)
{
    return [&sink, draw = std::move(draw)](
               Seconds& compute, std::span<const Demand>& demands) {
        sink.clear();
        if (!draw(compute))
            return false;
        demands = sink.demands();
        return true;
    };
}

class HeapOnlyLoop
{
  public:
    using Source = ClosedLoop::Source;
    using DoneFn = std::function<void(Seconds compute, Seconds issue,
                                      Seconds completion)>;

    explicit HeapOnlyLoop(const SchedConfig& cfg)
        : config_(cfg)
    {
        const auto add = [this](Group g, std::uint32_t servers) {
            resources_.emplace_back();
            resources_.back().group = g;
            resources_.back().servers = servers;
        };
        for (std::uint32_t c = 0; c < config_.flashChannels; ++c)
            add(Group::Flash, 1);
        add(Group::Disk, 1);
        add(Group::Ecc, config_.resolvedEccUnits());
        add(Group::Dram, config_.dramPorts);
        jobs_.resize(config_.clients);
    }

    void
    run(const Source& source, const DoneFn& done)
    {
        for (std::uint32_t c = 0; c < config_.clients; ++c)
            push(now_, EventKind::ClientReady, 0, c);
        while (!heap_.empty()) {
            std::pop_heap(heap_.begin(), heap_.end(), later);
            const Event ev = heap_.back();
            heap_.pop_back();
            assert(ev.t >= now_);
            now_ = ev.t;
            switch (ev.kind) {
              case EventKind::ClientReady:
                onClientReady(ev, source, done);
                break;
              case EventKind::StageArrive:
                onStageArrive(ev);
                break;
              case EventKind::BgArrive:
                onBgArrive(ev);
                break;
              case EventKind::FgDone:
                onFgDone(ev, done);
                break;
              case EventKind::BgDone:
                onBgDone(ev);
                break;
            }
        }
        for (Resource& r : resources_)
            advance(r, now_);
    }

    Seconds wallClock() const { return now_; }
    std::uint64_t requestsCompleted() const { return fgCompleted_; }

    Seconds
    busySeconds(Group g) const
    {
        Seconds busy = 0;
        forGroup(g, [&](const Resource& r) { busy += r.busy; });
        return busy;
    }

    double
    utilization(Group g) const
    {
        if (now_ <= 0)
            return 0.0;
        Seconds busy = 0;
        std::uint64_t servers = 0;
        forGroup(g, [&](const Resource& r) {
            busy += r.busy;
            servers += r.servers;
        });
        return servers ? busy / (static_cast<double>(servers) * now_)
                       : 0.0;
    }

    std::uint64_t
    served(Group g) const
    {
        std::uint64_t n = 0;
        forGroup(g, [&](const Resource& r) {
            n += r.fgServed + r.bgServed;
        });
        return n;
    }

    std::uint64_t
    backgroundServed(Group g) const
    {
        std::uint64_t n = 0;
        forGroup(g, [&](const Resource& r) { n += r.bgServed; });
        return n;
    }

    double
    meanQueueDepth(Group g) const
    {
        if (now_ <= 0)
            return 0.0;
        double area = 0;
        forGroup(g, [&](const Resource& r) { area += r.queueArea; });
        return area / now_;
    }

    std::uint64_t
    maxQueueDepth(Group g) const
    {
        std::uint64_t m = 0;
        forGroup(g, [&](const Resource& r) {
            m = std::max(m, r.maxQueue);
        });
        return m;
    }

    double
    sojournPercentile(Group g, double p) const
    {
        Histogram merged;
        forGroup(g, [&](const Resource& r) { merged.merge(r.sojourn); });
        return merged.percentile(p);
    }

  private:
    enum class EventKind : std::uint8_t
    {
        ClientReady,
        StageArrive,
        BgArrive,
        FgDone,
        BgDone,
    };

    struct Event
    {
        Seconds t;
        std::uint64_t seq;
        EventKind kind;
        std::uint32_t res;
        std::uint32_t job;
        Seconds service;
    };

    struct Stage
    {
        std::uint32_t resource;
        Seconds service;
    };

    struct Job
    {
        Seconds compute = 0;
        Seconds issue = 0;
        Seconds arrival = 0;
        std::vector<Stage> stages;
        std::size_t cursor = 0;
    };

    struct Resource
    {
        Group group;
        std::uint32_t servers = 1;
        std::uint32_t busyServers = 0;
        std::deque<std::uint32_t> fg;
        std::deque<Seconds> bg;
        Seconds lastT = 0;
        Seconds busy = 0;
        Seconds queueArea = 0;
        std::uint64_t fgServed = 0;
        std::uint64_t bgServed = 0;
        std::uint64_t maxQueue = 0;
        Histogram sojourn;
    };

    static bool
    later(const Event& a, const Event& b)
    {
        if (a.t != b.t)
            return a.t > b.t;
        return a.seq > b.seq;
    }

    void
    push(Seconds t, EventKind kind, std::uint32_t res, std::uint32_t job,
         Seconds service = 0)
    {
        assert(t >= now_);
        heap_.push_back({t, nextSeq_++, kind, res, job, service});
        std::push_heap(heap_.begin(), heap_.end(), later);
    }

    std::uint32_t
    resourceOf(const Demand& d) const
    {
        switch (d.kind) {
          case ResourceKind::FlashChannel:
            return d.channel % config_.flashChannels;
          case ResourceKind::Disk:
            return config_.flashChannels;
          case ResourceKind::Ecc:
            return config_.flashChannels + 1;
          case ResourceKind::DramPort:
            return config_.flashChannels + 2;
        }
        return config_.flashChannels + 2;
    }

    static void
    advance(Resource& r, Seconds t)
    {
        const Seconds dt = t - r.lastT;
        if (dt > 0) {
            r.queueArea +=
                static_cast<double>(r.fg.size() + r.bg.size()) * dt;
            r.lastT = t;
        }
    }

    void
    dispatch(std::uint32_t res, Seconds t)
    {
        Resource& r = resources_[res];
        while (r.busyServers < r.servers &&
               (!r.fg.empty() || !r.bg.empty())) {
            ++r.busyServers;
            if (!r.fg.empty()) {
                const std::uint32_t job = r.fg.front();
                r.fg.pop_front();
                const Job& j = jobs_[job];
                r.busy += j.stages[j.cursor].service;
                push(t + j.stages[j.cursor].service, EventKind::FgDone,
                     res, job);
            } else {
                const Seconds service = r.bg.front();
                r.bg.pop_front();
                r.busy += service;
                push(t + service, EventKind::BgDone, res, 0);
            }
        }
        r.maxQueue = std::max(
            r.maxQueue,
            static_cast<std::uint64_t>(r.fg.size() + r.bg.size()));
    }

    void
    onClientReady(const Event& ev, const Source& source,
                  const DoneFn& done)
    {
        Seconds compute = 0;
        std::span<const Demand> demands;
        if (!source(compute, demands))
            return;
        Job& j = jobs_[ev.job];
        j.compute = compute;
        j.issue = ev.t + compute;
        j.stages.clear();
        j.cursor = 0;
        for (const Demand& d : demands) {
            if (d.background) {
                push(j.issue, EventKind::BgArrive, resourceOf(d), 0,
                     d.service);
            } else {
                j.stages.push_back({resourceOf(d), d.service});
            }
        }
        if (j.stages.empty()) {
            ++fgCompleted_;
            done(j.compute, j.issue, j.issue);
            push(j.issue, EventKind::ClientReady, 0, ev.job);
        } else {
            push(j.issue, EventKind::StageArrive, j.stages[0].resource,
                 ev.job);
        }
    }

    void
    onStageArrive(const Event& ev)
    {
        Resource& r = resources_[ev.res];
        advance(r, ev.t);
        jobs_[ev.job].arrival = ev.t;
        r.fg.push_back(ev.job);
        dispatch(ev.res, ev.t);
    }

    void
    onBgArrive(const Event& ev)
    {
        Resource& r = resources_[ev.res];
        advance(r, ev.t);
        r.bg.push_back(ev.service);
        dispatch(ev.res, ev.t);
    }

    void
    onFgDone(const Event& ev, const DoneFn& done)
    {
        Resource& r = resources_[ev.res];
        advance(r, ev.t);
        assert(r.busyServers > 0);
        --r.busyServers;
        ++r.fgServed;
        Job& j = jobs_[ev.job];
        r.sojourn.add(ev.t - j.arrival);
        dispatch(ev.res, ev.t);
        ++j.cursor;
        if (j.cursor < j.stages.size()) {
            push(ev.t, EventKind::StageArrive,
                 j.stages[j.cursor].resource, ev.job);
        } else {
            ++fgCompleted_;
            done(j.compute, j.issue, ev.t);
            push(ev.t, EventKind::ClientReady, 0, ev.job);
        }
    }

    void
    onBgDone(const Event& ev)
    {
        Resource& r = resources_[ev.res];
        advance(r, ev.t);
        assert(r.busyServers > 0);
        --r.busyServers;
        ++r.bgServed;
        dispatch(ev.res, ev.t);
    }

    template <typename Fn>
    void
    forGroup(Group g, Fn&& fn) const
    {
        for (const Resource& r : resources_) {
            if (r.group == g)
                fn(r);
        }
    }

    SchedConfig config_;
    std::vector<Resource> resources_;
    std::vector<Job> jobs_;
    std::vector<Event> heap_;
    std::uint64_t nextSeq_ = 0;
    Seconds now_ = 0;
    std::uint64_t fgCompleted_ = 0;
};

} // namespace oracle
} // namespace sched
} // namespace flashcache

#endif // FLASHCACHE_TESTS_SCHED_ORACLE_HH
