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
 * Batches. The producer appends requests to one of three batches
 * (request headers and demands, two vectors that keep their
 * capacity, so any request size fits). Every kBatchRequests requests,
 * and at the end, it publishes the batch by bumping its count. The
 * consumer reads published batches in order and releases one by
 * bumping its own count only when its next pop needs a new batch, so
 * the last span it returned stays valid until then. With three
 * batches the model runs up to two batches ahead of the engine.
 *
 * Waiting. A side that cannot go on (no published batch, or no free
 * one) polls for up to 50 us, yielding now and then, then sleeps on
 * the other side's signal word (std::atomic::wait). The other side
 * notifies only a sleeper, at most once per batch, so a run pinned to
 * one CPU switches threads rarely.
 */

#ifndef FLASHCACHE_SIM_REQUEST_CHANNEL_HH
#define FLASHCACHE_SIM_REQUEST_CHANNEL_HH

#include <algorithm>
#include <array>
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
    /** Requests per batch; tests shrink it so that every handoff and
     *  full-pipeline wait runs many times. */
    static constexpr std::size_t kBatchRequests = 256;

    explicit RequestChannel(std::size_t batchRequests = kBatchRequests)
        : batchRequests_(std::max<std::size_t>(batchRequests, 1))
    {
    }

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
     * has stopped (it returned or threw), as seen at the next batch
     * handoff; the producer should then return.
     */
    bool
    push(Seconds compute, std::span<const sched::Demand> demands)
    {
        Batch& b = *fill_;
        b.records.push_back({compute, demands.size()});
        b.demands.insert(b.demands.end(), demands.begin(), demands.end());
        return b.records.size() < batchRequests_ || handOff();
    }

    /**
     * Consumer: take the next request in push order. The span stays
     * valid until the next pop(). Returns false after the end marker,
     * on this and every later call of the run.
     */
    bool
    pop(Seconds& compute, std::span<const sched::Demand>& demands)
    {
        Cursor& c = cursor_;
        if (c.next == c.end && !take())
            return false;
        const Record r = *c.next++;
        compute = r.compute;
        demands = {c.demands, r.demands};
        c.demands += r.demands;
        return true;
    }

  private:
    static constexpr std::uint64_t kBatches = 3;

    struct Record
    {
        Seconds compute;
        std::uint64_t demands; ///< count
    };

    /** Cache-aligned so that the producer's appends to one batch never
     *  touch the line of the batch the consumer reads. */
    struct alignas(64) Batch
    {
        std::vector<Record> records;
        std::vector<sched::Demand> demands;
    };

    /** One side's shared state, written only by that side. */
    struct alignas(64) Side
    {
        std::atomic<std::uint64_t> count{0}; ///< published / released
        std::atomic<std::uint32_t> signal{0};
        std::atomic<bool> sleeping{false};
        std::atomic<bool> done{false}; ///< closed / stopped
    };

    /** The consumer's copy of the batch it reads, on its own line. */
    struct alignas(64) Cursor
    {
        const Record* next = nullptr;
        const Record* end = nullptr;
        const sched::Demand* demands = nullptr;
        std::uint64_t taken = 0; ///< batches taken this run
    };

    /** Bump `self.signal`; wake `other` if it sleeps on it. */
    static void wake(Side& self, const Side& other);

    /** Producer: start filling batch `batch` (mod kBatches). */
    void claim(std::uint64_t batch);
    /** Producer: publish the full batch and claim the next one; false
     *  once the consumer has stopped. */
    bool handOff();

    /** Consumer: release the batch read so far and take the next;
     *  false at the end. */
    bool take();

    std::array<Batch, kBatches> batches_;
    Batch* fill_ = &batches_[0];
    std::size_t batchRequests_;

    Side producer_;
    Side consumer_;
    Cursor cursor_;
};

} // namespace flashcache

#endif // FLASHCACHE_SIM_REQUEST_CHANNEL_HH
