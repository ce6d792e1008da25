/**
 * @file
 * Single-producer/single-consumer channel that carries requests from
 * one stage of SystemSimulator's pipeline to the next.
 *
 * Each request is a payload (the draw hop: the drawn record and its
 * compute time; the engine hop: the compute time) plus a list of
 * device demands (empty on the draw hop). The producer pushes
 * requests, the consumer pops them in the same order: the k-th pop
 * returns the k-th push and every pop after the end marker returns
 * false, which is exactly the order a serial loop would produce, so
 * results do not depend on thread timing.
 *
 * Batches. The producer appends requests to one of three batches
 * (request headers and demands, two vectors that keep their
 * capacity, so any request size fits). Every batchRequests requests,
 * and at the end, it publishes the batch by bumping its count. The
 * consumer reads published batches in order and releases one by
 * bumping its own count only when its next pop needs a new batch, so
 * the last span it returned stays valid until then. With three
 * batches the producer runs up to two batches ahead of the consumer.
 * The constructor reserves every batch's headers, so a producer on a
 * new thread never allocates for requests without demands.
 *
 * Waiting. A side that cannot go on (no published batch, or no free
 * one) polls for up to 50 us, yielding now and then, then sleeps on
 * the other side's signal word (std::atomic::wait). The other side
 * notifies only a sleeper, at most once per batch, so a run pinned to
 * one CPU switches threads rarely.
 *
 * BatchHandoff holds that protocol and the threads; it counts batches
 * and never sees what they hold. RequestChannel<Payload> holds the
 * typed batches.
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

/** The wait/wake protocol and the two threads of one channel. */
class BatchHandoff
{
  public:
    /** The side of run() that gets the new thread; the other side
     *  runs on the calling thread. */
    enum class NewThread
    {
        Consumer,
        Producer,
    };

  protected:
    static constexpr std::uint64_t kBatches = 3;

    BatchHandoff() = default;
    BatchHandoff(const BatchHandoff&) = delete;
    BatchHandoff& operator=(const BatchHandoff&) = delete;

    /** RequestChannel::run() once the caller has claimed batch 0. At
     *  the end the producer publishes the batch it was filling, even
     *  an empty one, then the end marker. */
    void run(const std::function<void()>& produce,
             const std::function<void()>& consume, NewThread side);

    /** Producer: publish the full batch and wait until the next one
     *  is free; `next` receives its number. False once the consumer
     *  has stopped (it returned or threw). */
    bool handOff(std::uint64_t& next);

    /** Consumer: release the batch read so far and wait for the next;
     *  `batch` receives its number. False at the end. */
    bool take(std::uint64_t& batch);

  private:
    /** One side's shared state, written only by that side. */
    struct alignas(64) Side
    {
        std::atomic<std::uint64_t> count{0}; ///< published / released
        std::atomic<std::uint32_t> signal{0};
        std::atomic<bool> sleeping{false};
        std::atomic<bool> done{false}; ///< closed / stopped
    };

    /** Bump `self.signal`; wake `other` if it sleeps on it. */
    static void wake(Side& self, const Side& other);

    Side producer_;
    Side consumer_;
    /** Batches the consumer has taken this run (consumer-only). */
    alignas(64) std::uint64_t taken_ = 0;
};

template <typename Payload>
class RequestChannel : private BatchHandoff
{
  public:
    /** Requests per batch; tests shrink it so that every handoff and
     *  full-pipeline wait runs many times. */
    static constexpr std::size_t kBatchRequests = 256;

    explicit RequestChannel(std::size_t batchRequests = kBatchRequests)
        : batchRequests_(std::max<std::size_t>(batchRequests, 1))
    {
        for (Batch& b : batches_)
            b.records.reserve(batchRequests_);
    }

    /**
     * Run `produce` and `consume` on two threads: the consumer on a
     * new one by default, or the producer with NewThread::Producer.
     * The channel ends when `produce` returns or throws. An exception
     * from either side is rethrown here after the join (the
     * consumer's first). The channel is reusable: each run() starts
     * empty.
     */
    void
    run(const std::function<void()>& produce,
        const std::function<void()>& consume,
        NewThread side = NewThread::Consumer)
    {
        // Before the new thread starts, so its creation orders the
        // fresh state before its first push or pop.
        claim(0);
        cursor_ = Cursor{};
        BatchHandoff::run(produce, consume, side);
    }

    /**
     * Producer: append one request. Returns false once the consumer
     * has stopped (it returned or threw), as seen at the next batch
     * handoff; the producer should then return.
     */
    bool
    push(const Payload& payload, std::span<const sched::Demand> demands = {})
    {
        Batch& b = *fill_;
        b.records.push_back({payload, demands.size()});
        b.demands.insert(b.demands.end(), demands.begin(), demands.end());
        if (b.records.size() < batchRequests_)
            return true;
        std::uint64_t next = 0;
        const bool open = handOff(next);
        claim(next);
        return open;
    }

    /**
     * Consumer: take the next request in push order. The span stays
     * valid until the next pop(). Returns false after the end marker,
     * on this and every later call of the run.
     */
    bool
    pop(Payload& payload, std::span<const sched::Demand>& demands)
    {
        Cursor& c = cursor_;
        while (c.next == c.end) {
            std::uint64_t batch = 0;
            if (!take(batch))
                return false;
            const Batch& b = batches_[batch % kBatches];
            c.next = b.records.data();
            c.end = c.next + b.records.size();
            c.demands = b.demands.data();
        }
        const Record& r = *c.next++;
        payload = r.payload;
        demands = {c.demands, r.demands};
        c.demands += r.demands;
        return true;
    }

    /** Consumer: pop() for requests without demands. */
    bool
    pop(Payload& payload)
    {
        std::span<const sched::Demand> demands;
        return pop(payload, demands);
    }

  private:
    struct Record
    {
        Payload payload;
        std::uint64_t demands; ///< count
    };

    /** Cache-aligned so that the producer's appends to one batch never
     *  touch the line of the batch the consumer reads. */
    struct alignas(64) Batch
    {
        std::vector<Record> records;
        std::vector<sched::Demand> demands;
    };

    /** The consumer's copy of the batch it reads, on its own line. */
    struct alignas(64) Cursor
    {
        const Record* next = nullptr;
        const Record* end = nullptr;
        const sched::Demand* demands = nullptr;
    };

    /** Producer: start filling batch `batch` (mod kBatches). */
    void
    claim(std::uint64_t batch)
    {
        fill_ = &batches_[batch % kBatches];
        fill_->records.clear();
        fill_->demands.clear();
    }

    std::array<Batch, kBatches> batches_;
    Batch* fill_ = &batches_[0];
    std::size_t batchRequests_;
    Cursor cursor_;
};

} // namespace flashcache

#endif // FLASHCACHE_SIM_REQUEST_CHANNEL_HH
