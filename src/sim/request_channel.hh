/**
 * @file
 * Single-producer/single-consumer channel that carries functional
 * requests from the model thread to the event engine.
 *
 * The functional model (workload draw, compute draw, PDC, flash
 * cache, devices) never reads the engine's virtual clock, and the
 * engine only replays the demands the model recorded. So the two run
 * on two threads: the producer pushes each request's compute time
 * and demand list, the consumer pops them in the same order. The
 * k-th pop returns the k-th push and every pop after the end marker
 * returns false, which is exactly the order a serial loop would
 * produce; results do not depend on thread timing.
 *
 * Layout. Two flat rings: one of request headers (compute time,
 * demand count) and one of demands, indexed by free-running 64-bit
 * counters. A request's demands are contiguous in the demand ring
 * unless they wrap its end or outnumber it; then the consumer copies
 * them out piece by piece, so any request size passes. The producer
 * publishes its write indices every kPublishEvery requests, the
 * consumer its read indices likewise; each side's shared and private
 * fields sit on cache lines of their own.
 *
 * Waiting. A side that finds nothing to do publishes what it holds,
 * polls for up to 50 us (yielding now and then), then sleeps on the
 * other side's signal word (std::atomic::wait). The other side notifies only a sleeper: when
 * it must wait itself, at the end, and otherwise once per sleep when
 * half a ring of work (or of space) is ready. So a wake-up costs one
 * system call per many requests, and a run pinned to one CPU switches
 * threads rarely.
 */

#ifndef FLASHCACHE_SIM_REQUEST_CHANNEL_HH
#define FLASHCACHE_SIM_REQUEST_CHANNEL_HH

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "sched/demand.hh"
#include "util/types.hh"

namespace flashcache {

class RequestChannel
{
  public:
    static constexpr std::size_t kRecordSlots = 1024;
    static constexpr std::size_t kDemandSlots = 16384;

    /** Indices are published once per this many requests. */
    static constexpr std::uint32_t kPublishEvery = 16;

    /** Ring sizes are rounded up to powers of two. Tests shrink them
     *  to force wrap-around copies and full-ring waits. */
    explicit RequestChannel(std::size_t recordSlots = kRecordSlots,
                            std::size_t demandSlots = kDemandSlots);

    RequestChannel(const RequestChannel&) = delete;
    RequestChannel& operator=(const RequestChannel&) = delete;

    /**
     * Run `produce` on the calling thread and `consume` on a new one,
     * then join. The channel ends when `produce` returns or throws.
     * An exception from either side is rethrown here after the join
     * (the consumer's first). The channel is reusable: each run()
     * starts empty.
     */
    void run(const std::function<void()>& produce,
             const std::function<void()>& consume);

    /**
     * Producer: append one request. Returns false once the consumer
     * has stopped (it returned or threw); the producer should then
     * return.
     */
    bool
    push(Seconds compute, std::span<const sched::Demand> demands)
    {
        Producer& p = prod_;
        if (p.recWrite - p.recFree == records_.size() &&
            !awaitSlot(false))
            return false;
        records_[p.recWrite & recMask_] = {compute, demands.size()};
        ++p.recWrite;
        const sched::Demand* src = demands.data();
        std::size_t left = demands.size();
        while (left > 0) {
            if (p.demWrite - p.demFree == demands_.size() &&
                !awaitSlot(true))
                return false;
            const std::size_t at = p.demWrite & demMask_;
            const std::size_t n = std::min(
                {left,
                 static_cast<std::size_t>(demands_.size() -
                                          (p.demWrite - p.demFree)),
                 demands_.size() - at});
            std::copy_n(src, n, &demands_[at]);
            src += n;
            left -= n;
            p.demWrite += n;
        }
        if (++p.unpublished == kPublishEvery)
            publish(false);
        return true;
    }

    /**
     * Consumer: take the next request in push order. The span stays
     * valid until the next pop(). Returns false after the end marker,
     * on this and every later call of the run.
     */
    bool
    pop(Seconds& compute, std::span<const sched::Demand>& demands)
    {
        Consumer& c = cons_;
        c.demRead += c.held;
        c.held = 0;
        if (c.recRead == c.recSeen && !awaitRecord())
            return false;
        const Record r = records_[c.recRead & recMask_];
        ++c.recRead;
        compute = r.compute;
        const std::size_t at = c.demRead & demMask_;
        if (c.demSeen - c.demRead >= r.demands &&
            at + r.demands <= demands_.size()) {
            demands = {&demands_[at], r.demands};
            c.held = r.demands;
        } else {
            demands = gather(r.demands);
        }
        if (++c.unreleased == kPublishEvery)
            release(false);
        return true;
    }

  private:
    struct Record
    {
        Seconds compute;
        std::uint64_t demands;
    };

    /** Written by the producer, read by the consumer. */
    struct alignas(64) ProducerShared
    {
        std::atomic<std::uint64_t> recPub{0};
        std::atomic<std::uint64_t> demPub{0};
        std::atomic<std::uint32_t> signal{0};
        std::atomic<bool> sleeping{false};
        std::atomic<bool> closed{false};
    };

    /** Producer-private: write indices and its view of the frees. */
    struct alignas(64) Producer
    {
        std::uint64_t recWrite = 0;
        std::uint64_t demWrite = 0;
        std::uint64_t recFree = 0; ///< consumer's released records
        std::uint64_t demFree = 0; ///< consumer's released demands
        std::uint32_t unpublished = 0;
        bool woke = false; ///< notified the sleeping consumer
    };

    /** Written by the consumer, read by the producer. */
    struct alignas(64) ConsumerShared
    {
        std::atomic<std::uint64_t> recRel{0};
        std::atomic<std::uint64_t> demRel{0};
        std::atomic<std::uint32_t> signal{0};
        std::atomic<bool> sleeping{false};
        std::atomic<bool> stopped{false};
    };

    /** Consumer-private: read indices and its view of the publishes. */
    struct alignas(64) Consumer
    {
        std::uint64_t recRead = 0;
        std::uint64_t demRead = 0; ///< excludes the held span
        std::uint64_t recSeen = 0; ///< producer's published records
        std::uint64_t demSeen = 0; ///< producer's published demands
        std::uint64_t held = 0;    ///< demand slots of the last span
        std::uint32_t unreleased = 0;
        bool woke = false; ///< notified the sleeping producer
        bool ended = false;
        /** Copy of a request that wraps or outgrows the ring. */
        std::vector<sched::Demand> scratch;
    };

    /// @name Producer slow paths.
    /// @{
    void publish(bool force);
    /** Wait for a free record (or demand) slot; false once the
     *  consumer has stopped. */
    bool awaitSlot(bool demand);
    void close();
    /// @}

    /// @name Consumer slow paths.
    /// @{
    void release(bool force);
    bool awaitRecord();
    void awaitDemands(std::uint64_t target);
    std::span<const sched::Demand> gather(std::uint64_t count);
    void stop();
    /// @}

    void reset();

    std::vector<Record> records_;
    std::vector<sched::Demand> demands_;
    std::size_t recMask_;
    std::size_t demMask_;

    ProducerShared prodShared_;
    Producer prod_;
    ConsumerShared consShared_;
    Consumer cons_;
};

} // namespace flashcache

#endif // FLASHCACHE_SIM_REQUEST_CHANNEL_HH
