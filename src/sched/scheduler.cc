#include "sched/scheduler.hh"

#include <algorithm>
#include <cassert>

#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "util/log.hh"

namespace flashcache {
namespace sched {

namespace {

/** Metric prefix and trace span name of each Group. */
constexpr const char* kGroupNames[] = {"flash", "disk", "ecc", "dram"};

/** Client-track wait span name of each Group. */
constexpr const char* kWaitNames[] = {"flash wait", "disk wait",
                                      "ecc wait", "dram wait"};

const char*
nameOf(Group g)
{
    return kGroupNames[static_cast<std::size_t>(g)];
}

} // namespace

// --------------------------------------------------------------- closed loop

ClosedLoop::ClosedLoop(const SchedConfig& cfg)
    : config_(cfg)
{
    if (config_.clients == 0)
        fatal("SchedConfig::clients must be positive");
    if (config_.flashChannels == 0)
        fatal("SchedConfig::flashChannels must be positive");
    if (config_.dramPorts == 0)
        fatal("SchedConfig::dramPorts must be positive");
    resources_.resize(config_.flashChannels + 3);
    const auto setGroup = [this](std::uint32_t res, Group g,
                                 std::uint32_t servers) {
        resources_[res].group = g;
        resources_[res].servers = servers;
    };
    for (std::uint32_t c = 0; c < config_.flashChannels; ++c)
        setGroup(c, Group::Flash, 1);
    setGroup(config_.flashChannels, Group::Disk, 1);
    setGroup(config_.flashChannels + 1, Group::Ecc,
             config_.resolvedEccUnits());
    setGroup(config_.flashChannels + 2, Group::Dram, config_.dramPorts);
    jobs_.resize(config_.clients);
}

void
ClosedLoop::push(Seconds t, EventKind kind, std::uint32_t id)
{
    assert(t >= now_);
    // The new event goes after the prefix of strictly later events.
    // Branch-free lower bound: the trip count depends only on the
    // list's length, and each comparison feeds a conditional move.
    const Event* base = events_.data();
    std::size_t n = events_.size();
    if (n > 0) {
        while (n > 1) {
            const std::size_t half = n / 2;
            base = base[half].t > t ? base + half : base;
            n -= half;
        }
        base += base->t > t;
    }
    [[maybe_unused]] const auto at = events_.insert(
        events_.begin() + (base - events_.data()), Event{t, kind, id});
    assert(at == events_.begin() || (at - 1)->t > t);
    assert(at + 1 == events_.end() || (at + 1)->t <= t);
}

std::uint32_t
ClosedLoop::resourceOf(const Demand& d) const
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
    return config_.flashChannels + 2; // unreachable
}

void
ClosedLoop::advance(Resource& r, Seconds t)
{
    const Seconds dt = t - r.lastT;
    if (dt > 0) {
        r.queueArea += static_cast<double>(r.waiting) * dt;
        r.lastT = t;
    }
}

void
ClosedLoop::dispatch(std::uint32_t res, Seconds t)
{
    Resource& r = resources_[res];
    // Strict two-level priority: a freed server always takes a
    // waiting foreground stage before any background op (no
    // preemption of ops already in service).
    while (r.busyServers < r.servers && r.waiting > 0) {
        ++r.busyServers;
        --r.waiting;
        if (!r.fg.empty()) {
            const std::uint32_t job = r.fg.front();
            r.fg.pop_front();
            const Job& j = jobs_[job];
            const Seconds service = j.ops[j.cursor].service;
            r.busy += service;
            if (tracer_)
                traceStage(res, job, t, service);
            push(t + service, EventKind::FgDone, job);
        } else {
            const Seconds service = r.bg.front();
            r.bg.pop_front();
            r.busy += service;
            if (tracer_)
                tracer_->record(res, nameOf(r.group), "bg", t, service);
            push(t + service, EventKind::BgDone, res);
        }
    }
    r.maxQueue = std::max(r.maxQueue, r.waiting);
}

bool
ClosedLoop::onClientReady(Event& ev, const Source& source,
                          const DoneFn& done)
{
    const std::uint32_t job = ev.id;
    Seconds compute = 0;
    std::span<const Demand> demands;
    if (!source(compute, demands))
        return false; // workload exhausted: this client retires
    Job& j = jobs_[job];
    j.draw = now_;
    j.compute = compute;
    j.issue = now_ + compute;
    j.ops.clear();
    j.cursor = 0;
    for (const Demand& d : demands) {
        if (!d.background)
            j.ops.push_back({resourceOf(d), d.service});
    }
    j.stages = static_cast<std::uint32_t>(j.ops.size());
    for (const Demand& d : demands) {
        if (d.background)
            j.ops.push_back({resourceOf(d), d.service});
    }
    bgSubmitted_ += j.ops.size() - j.stages;
    if (j.stages == 0) {
        ++fgCompleted_;
        done(j.compute, j.issue, j.issue);
        if (tracer_)
            traceRequest(job, j.issue);
    }
    ev = {j.issue, EventKind::Issue, job};
    return true;
}

bool
ClosedLoop::onIssue(Event& ev, const Source& source, const DoneFn& done)
{
    // One event stands for what would otherwise be one arrival event
    // per background op, then the stage-0 arrival (or, with no
    // stages, the next draw): they would carry consecutive sequence
    // numbers at this instant, so nothing could run between them.
    const Job& j = jobs_[ev.id];
    for (std::size_t k = j.stages; k < j.ops.size(); ++k) {
        const Stage& op = j.ops[k];
        Resource& r = resources_[op.resource];
        advance(r, now_);
        r.bg.push_back(op.service);
        ++r.waiting;
        dispatch(op.resource, now_);
    }
    if (j.stages == 0)
        return onClientReady(ev, source, done);
    return onStageArrive(ev);
}

bool
ClosedLoop::onStageArrive(Event& ev)
{
    const std::uint32_t job = ev.id;
    Job& j = jobs_[job];
    const Stage& st = j.ops[j.cursor];
    Resource& r = resources_[st.resource];
    advance(r, now_);
    j.arrival = now_;
    if (r.busyServers < r.servers) {
        // dispatch() leaves no server idle while work waits, so the
        // queues are empty and the stage goes straight into service.
        assert(r.waiting == 0);
        ++r.busyServers;
        r.busy += st.service;
        if (tracer_)
            traceStage(st.resource, job, now_, st.service);
        ev = {now_ + st.service, EventKind::FgDone, job};
        return true;
    }
    r.fg.push_back(job);
    r.maxQueue = std::max(r.maxQueue, ++r.waiting);
    return false;
}

bool
ClosedLoop::onFgDone(Event& ev, const DoneFn& done)
{
    const std::uint32_t job = ev.id;
    Job& j = jobs_[job];
    const std::uint32_t res = j.ops[j.cursor].resource;
    Resource& r = resources_[res];
    advance(r, now_);
    assert(r.busyServers > 0);
    --r.busyServers;
    ++r.fgServed;
    r.sojourn.add(now_ - j.arrival);
    dispatch(res, now_);
    if (++j.cursor < j.stages) {
        ev = {now_, EventKind::StageArrive, job};
        return true;
    }
    ++fgCompleted_;
    done(j.compute, j.issue, now_);
    if (tracer_)
        traceRequest(job, now_);
    ev = {now_, EventKind::ClientReady, job};
    return true;
}

void
ClosedLoop::onBgDone(const Event& ev)
{
    Resource& r = resources_[ev.id];
    advance(r, now_);
    assert(r.busyServers > 0);
    --r.busyServers;
    ++r.bgServed;
    dispatch(ev.id, now_);
}

void
ClosedLoop::run(const Source& source, const DoneFn& done)
{
    for (std::uint32_t c = 0; c < config_.clients; ++c)
        push(now_, EventKind::ClientReady, c);
    while (!events_.empty()) {
        Event ev = events_.back();
        events_.pop_back();
        bool follow = true;
        while (follow) {
            assert(ev.t >= now_);
            now_ = ev.t;
            switch (ev.kind) {
              case EventKind::ClientReady:
                follow = onClientReady(ev, source, done);
                break;
              case EventKind::Issue:
                follow = onIssue(ev, source, done);
                break;
              case EventKind::StageArrive:
                follow = onStageArrive(ev);
                break;
              case EventKind::FgDone:
                follow = onFgDone(ev, done);
                break;
              case EventKind::BgDone:
                onBgDone(ev);
                follow = false;
                break;
            }
            // Pushed, the follow-up would pop after every queued event
            // at or before its time and before every later one, so it
            // pops next exactly when the list's back is strictly
            // later: then run it directly.
            if (follow && !events_.empty() && events_.back().t <= ev.t) {
                push(ev.t, ev.kind, ev.id);
                follow = false;
            }
        }
    }
    // Close every resource's integrals out to the final event time
    // so utilization/queue-depth denominators line up with wallClock.
    for (Resource& r : resources_)
        advance(r, now_);
}

// ----------------------------------------------------------------- timeline

void
ClosedLoop::attachTracer(obs::Tracer* tracer)
{
    tracer_ = tracer;
    if (!tracer_)
        return;
    for (std::uint32_t res = 0; res < resources_.size(); ++res) {
        const char* name = nameOf(resources_[res].group);
        tracer_->nameTrack(res, res < config_.flashChannels
                                    ? std::string(name) + " ch" +
                                        std::to_string(res)
                                    : std::string(name));
    }
    for (std::uint32_t c = 0; c < config_.clients; ++c)
        tracer_->nameTrack(clientTrack(c),
                           "client " + std::to_string(c));
}

std::uint32_t
ClosedLoop::clientTrack(std::uint32_t job) const
{
    return static_cast<std::uint32_t>(resources_.size()) + job;
}

void
ClosedLoop::traceStage(std::uint32_t res, std::uint32_t job,
                       Seconds start, Seconds service)
{
    const Group g = resources_[res].group;
    tracer_->record(res, nameOf(g), "fg", start, service);
    const std::uint32_t track = clientTrack(job);
    const Seconds arrival = jobs_[job].arrival;
    if (start > arrival) {
        tracer_->record(track, kWaitNames[static_cast<std::size_t>(g)],
                        "wait", arrival, start - arrival);
    }
    tracer_->record(track, nameOf(g), "fg", start, service);
}

void
ClosedLoop::traceRequest(std::uint32_t job, Seconds completion)
{
    const Job& j = jobs_[job];
    const std::uint32_t track = clientTrack(job);
    tracer_->record(track, "request", "client", j.draw,
                    completion - j.draw);
    tracer_->record(track, "compute", "client", j.draw, j.compute);
}

// ------------------------------------------------------------------ queries

template <typename Fn>
void
ClosedLoop::forGroup(Group g, Fn&& fn) const
{
    for (const Resource& r : resources_) {
        if (r.group == g)
            fn(r);
    }
}

double
ClosedLoop::utilization(Group g) const
{
    if (now_ <= 0)
        return 0.0;
    Seconds busy = 0;
    std::uint64_t servers = 0;
    forGroup(g, [&](const Resource& r) {
        busy += r.busy;
        servers += r.servers;
    });
    return servers ? busy / (static_cast<double>(servers) * now_) : 0.0;
}

Seconds
ClosedLoop::busySeconds(Group g) const
{
    Seconds busy = 0;
    forGroup(g, [&](const Resource& r) { busy += r.busy; });
    return busy;
}

std::uint64_t
ClosedLoop::served(Group g) const
{
    std::uint64_t n = 0;
    forGroup(g, [&](const Resource& r) { n += r.fgServed + r.bgServed; });
    return n;
}

std::uint64_t
ClosedLoop::backgroundServed(Group g) const
{
    std::uint64_t n = 0;
    forGroup(g, [&](const Resource& r) { n += r.bgServed; });
    return n;
}

double
ClosedLoop::meanQueueDepth(Group g) const
{
    if (now_ <= 0)
        return 0.0;
    double area = 0;
    forGroup(g, [&](const Resource& r) { area += r.queueArea; });
    return area / now_;
}

std::uint64_t
ClosedLoop::maxQueueDepth(Group g) const
{
    std::uint64_t m = 0;
    forGroup(g, [&](const Resource& r) { m = std::max(m, r.maxQueue); });
    return m;
}

double
ClosedLoop::sojournPercentile(Group g, double p) const
{
    Histogram merged;
    forGroup(g, [&](const Resource& r) { merged.merge(r.sojourn); });
    return merged.percentile(p);
}

void
ClosedLoop::registerMetrics(obs::MetricRegistry& reg)
{
    reg.gauge("sched.clients", "closed-loop client count",
              [this] { return static_cast<double>(config_.clients); });
    reg.gauge("sched.flash.channels", "independent flash channels",
              [this] {
                  return static_cast<double>(config_.flashChannels);
              });
    reg.gauge("sched.requests", "foreground requests completed",
              [this] { return static_cast<double>(fgCompleted_); });
    reg.gauge("sched.bg_jobs", "background ops submitted",
              [this] { return static_cast<double>(bgSubmitted_); });

    for (const Group g :
         {Group::Flash, Group::Disk, Group::Ecc, Group::Dram}) {
        const std::string base = std::string("sched.") + nameOf(g);
        reg.gauge(base + ".utilization",
                  "fraction of server-time in service",
                  [this, g] { return utilization(g); });
        reg.gauge(base + ".busy", "server-seconds of service",
                  [this, g] { return busySeconds(g); });
        reg.gauge(base + ".served", "operations completed (fg+bg)",
                  [this, g] {
                      return static_cast<double>(served(g));
                  });
        reg.gauge(base + ".bg_served",
                  "background operations completed",
                  [this, g] {
                      return static_cast<double>(backgroundServed(g));
                  });
        reg.gauge(base + ".queue_depth", "time-averaged waiting ops",
                  [this, g] { return meanQueueDepth(g); });
        reg.gauge(base + ".max_queue", "peak waiting ops",
                  [this, g] {
                      return static_cast<double>(maxQueueDepth(g));
                  });
        reg.gauge(base + ".sojourn_p50",
                  "median per-visit wait+service (s)",
                  [this, g] { return sojournPercentile(g, 0.50); });
        reg.gauge(base + ".sojourn_p95",
                  "p95 per-visit wait+service (s)",
                  [this, g] { return sojournPercentile(g, 0.95); });
        reg.gauge(base + ".sojourn_p99",
                  "p99 per-visit wait+service (s)",
                  [this, g] { return sojournPercentile(g, 0.99); });
    }
}

} // namespace sched
} // namespace flashcache
