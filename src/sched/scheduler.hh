/**
 * @file
 * Deterministic virtual-time event scheduler with per-resource
 * service queues, driving a closed-loop multi-client workload.
 *
 * Resources model the contended stations of the storage hierarchy:
 * N independent flash channels (each a one-server queue over the
 * dies geometry-mapped to it), the disk head, K ECC engine units
 * (one queue, K servers), and the DRAM ports. A foreground request
 * walks its recorded demand chain (see demand.hh) through these
 * queues stage by stage and observes real waiting; background work
 * (GC, PDC write-backs) is two-level scheduled — a server takes a
 * background op only when no foreground job is waiting — so cleaning
 * yields to traffic instead of silently inflating busy time.
 *
 * The closed loop runs C clients. Each client draws its next request
 * the moment the previous one completes, computes for the request's
 * think time, then issues; client count therefore sets the offered
 * concurrency. Events run in virtual-time order, and events at one
 * instant in the order they were scheduled, so runs are
 * bit-deterministic for a fixed seed. A draw takes the request's
 * compute time and demand list from the source as a span; the source
 * never learns the virtual time, so the model behind it may run ahead
 * on another thread. SystemSimulator runs this engine as the last
 * stage of a three-thread pipeline: a draw stage feeds the functional
 * model, which feeds the engine, each hop through a RequestChannel.
 *
 * Pending events sit in one vector sorted in pop order, so the back
 * is always the next event: descending time, and at equal times the
 * newest first. A pushed event is always the newest, so it pops after
 * every queued event at or before its time and before every later
 * one. A binary search finds the end of the prefix of later events,
 * and the insert there shifts the events that pop sooner by one slot.
 * Pop is pop_back. This is the order a (time, insertion sequence)
 * heap pops in, without the sequence numbers.
 *
 * A request costs about two queued events. Its issue is one event
 * that enqueues all of its background ops and then arrives at its
 * first stage. Beyond that, a handler whose last act would be to push
 * one follow-up event — the next stage or the client's next draw
 * after a completion, the completion of a stage that found a server
 * free, the issue after a draw — runs that event directly when it is
 * strictly earlier than the list's back. Pushed, it would pop after
 * every queued event at or before its time, so then it would have
 * been the very next event popped: the shortcut changes no order and
 * no result. On a tie it goes through the list.
 *
 * With an obs::Tracer attached the engine writes the timeline: each
 * op's service span on its resource's track as it enters service
 * (category fg or bg), and on each client's track its requests with
 * their compute, wait and service spans. Background waits are not
 * traced (the bg queue keeps only service times). Tracing reads the
 * engine's state and changes none of it.
 */

#ifndef FLASHCACHE_SCHED_SCHEDULER_HH
#define FLASHCACHE_SCHED_SCHEDULER_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "sched/demand.hh"
#include "util/stats.hh"
#include "util/types.hh"

namespace flashcache {

namespace obs {
class MetricRegistry;
class Tracer;
} // namespace obs

namespace sched {

/** Scheduler shape: client count and per-resource server counts. */
struct SchedConfig
{
    std::uint32_t clients = 8;
    std::uint32_t flashChannels = 4;
    std::uint32_t eccUnits = 0; ///< 0 = one unit per flash channel
    std::uint32_t dramPorts = 2;

    std::uint32_t resolvedEccUnits() const
    {
        return eccUnits ? eccUnits : flashChannels;
    }
};

/** Metric/reporting aggregation groups (flash sums its channels). */
enum class Group : std::uint8_t
{
    Flash,
    Disk,
    Ecc,
    Dram,
};

/**
 * The event engine. One instance owns virtual time; successive
 * run() calls continue the same timeline (warm restarts keep their
 * clock).
 */
class ClosedLoop
{
  public:
    /**
     * The source hands over the next request: its compute (think)
     * time through `compute` and its recorded resource demands
     * through `demands`, which must stay valid until the next call.
     * Returning false means the workload is exhausted. The engine
     * calls it in virtual-time order but never tells it the time, so
     * the functional model behind it may run ahead on another thread.
     */
    using Source = std::function<bool(Seconds& compute,
                                      std::span<const Demand>& demands)>;

    /** Called at each foreground completion with the request's
     *  compute (think) time, issue time (post-think) and completion
     *  time; storage latency incl. queueing = completion - issue. */
    using DoneFn = std::function<void(Seconds compute, Seconds issue,
                                      Seconds completion)>;

    explicit ClosedLoop(const SchedConfig& cfg);

    /** Drive the source to exhaustion and drain all queues. */
    void run(const Source& source, const DoneFn& done);

    /** Virtual time of the last processed event (includes the
     *  background runoff after the last foreground completion). */
    Seconds wallClock() const { return now_; }

    std::uint64_t requestsCompleted() const { return fgCompleted_; }

    const SchedConfig& config() const { return config_; }

    /// @name Aggregated per-group statistics (sampled any time).
    /// @{
    double utilization(Group g) const;   ///< busy / (servers * wall)
    Seconds busySeconds(Group g) const;  ///< summed server-seconds
    std::uint64_t served(Group g) const; ///< fg + bg ops completed
    std::uint64_t backgroundServed(Group g) const;
    double meanQueueDepth(Group g) const;
    std::uint64_t maxQueueDepth(Group g) const;
    /** Per-visit sojourn at fraction p (0..1), Histogram::percentile. */
    double sojournPercentile(Group g, double p) const;
    /// @}

    /** Register sched.* gauges; `this` must outlive the registry. */
    void registerMetrics(obs::MetricRegistry& reg);

    /**
     * Record the timeline into `tracer` (nullptr detaches; not
     * owned). Names its tracks: track r is resource r (flash
     * channels, then disk, ECC, DRAM), and the clients follow. The
     * tracer is then written by whichever thread calls run().
     */
    void attachTracer(obs::Tracer* tracer);

  private:
    /**
     * Event kinds. A handler may leave one follow-up event as its
     * last act: ClientReady leaves the Issue, Issue and StageArrive
     * leave the FgDone of a stage that found a server free, FgDone
     * leaves the next StageArrive or ClientReady.
     */
    enum class EventKind : std::uint8_t
    {
        ClientReady, ///< client draws + computes its next request
        Issue,       ///< think time over: bg ops enqueue, then stage 0
        StageArrive, ///< fg job joins its next stage's resource queue
        FgDone,      ///< server finished a fg stage
        BgDone,      ///< server finished a bg op
    };

    struct Event
    {
        Seconds t;
        EventKind kind;
        std::uint32_t id; ///< resource for BgDone, else client == job
    };
    static_assert(sizeof(Event) == 16, "each insert moves whole events");

    struct Stage
    {
        std::uint32_t resource;
        Seconds service;
    };

    struct Job
    {
        Seconds draw = 0;    ///< when the client drew the request
        Seconds compute = 0; ///< think time before issue
        Seconds issue = 0;   ///< post-think; latency baseline
        Seconds arrival = 0; ///< arrival at the current resource
        /** The fg stages in chain order, then the bg ops in demand
         *  order; reused across the client's requests. */
        std::vector<Stage> ops;
        std::uint32_t stages = 0; ///< fg prefix length of ops
        std::uint32_t cursor = 0; ///< current fg stage
    };

    struct Resource
    {
        Group group;
        std::uint32_t servers = 1;
        std::uint32_t busyServers = 0;
        std::deque<std::uint32_t> fg; ///< waiting jobs
        std::deque<Seconds> bg;       ///< waiting bg service times
        std::uint64_t waiting = 0;    ///< fg.size() + bg.size()

        Seconds lastT = 0;
        Seconds busy = 0;      ///< sum of service of ops started
        Seconds queueArea = 0; ///< integral of waiting count dt
        std::uint64_t fgServed = 0;
        std::uint64_t bgServed = 0;
        std::uint64_t maxQueue = 0;
        Histogram sojourn; ///< fg wait+service per visit
    };

    void push(Seconds t, EventKind kind, std::uint32_t id);

    void advance(Resource& r, Seconds t);
    void dispatch(std::uint32_t res, Seconds t);
    std::uint32_t resourceOf(const Demand& d) const;

    /// @name Timeline records (only with a tracer attached).
    /// @{
    std::uint32_t clientTrack(std::uint32_t job) const;
    void traceStage(std::uint32_t res, std::uint32_t job, Seconds start,
                    Seconds service);
    void traceRequest(std::uint32_t job, Seconds completion);
    /// @}

    /// @name Event handlers at virtual time now_.
    /// Each returns true when it leaves a follow-up event in `ev`,
    /// which run() then executes directly or pushes.
    /// @{
    bool onClientReady(Event& ev, const Source& source,
                       const DoneFn& done);
    bool onIssue(Event& ev, const Source& source, const DoneFn& done);
    bool onStageArrive(Event& ev);
    bool onFgDone(Event& ev, const DoneFn& done);
    void onBgDone(const Event& ev);
    /// @}

    template <typename Fn>
    void forGroup(Group g, Fn&& fn) const;

    SchedConfig config_;
    std::vector<Resource> resources_;
    std::vector<Job> jobs_; ///< indexed by client
    std::vector<Event> events_; ///< pending, sorted in pop order (back next)
    Seconds now_ = 0;
    std::uint64_t fgCompleted_ = 0;
    std::uint64_t bgSubmitted_ = 0;
    obs::Tracer* tracer_ = nullptr;
};

} // namespace sched
} // namespace flashcache

#endif // FLASHCACHE_SCHED_SCHEDULER_HH
