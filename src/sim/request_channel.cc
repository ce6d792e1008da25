#include "sim/request_channel.hh"

#include <chrono>
#include <exception>
#include <memory>
#include <thread>

namespace flashcache {

namespace {

/**
 * How long a waiter polls the other side before it sleeps: on a
 * virtual machine, waking a sleeping (halted) CPU can take far longer
 * than a short wait itself. The poll yields every kYieldEvery tries,
 * so on one CPU the other side runs at once instead of the poll
 * burning the time slice.
 */
constexpr auto kPollFor = std::chrono::microseconds(50);
constexpr unsigned kYieldEvery = 16;

void
cpuRelax()
{
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield");
#endif
}

/**
 * Wait until ready() holds: poll it for kPollFor, then sleep on
 * `signal` with `sleeping` raised. The other side bumps `signal`
 * (seq_cst) after each count or flag store and then reads `sleeping`
 * (seq_cst): either it sees the flag and notifies, or this side's
 * re-check after raising the flag sees its store, or the futex wait
 * sees the bumped signal and returns at once. No wake-up is lost.
 * Only the waiter writes its flag.
 */
template <typename Ready>
void
awaitSignal(std::atomic<std::uint32_t>& signal,
            std::atomic<bool>& sleeping, Ready&& ready)
{
    const auto until = std::chrono::steady_clock::now() + kPollFor;
    for (unsigned i = 1;; ++i) {
        if (ready())
            return;
        if (i % kYieldEvery != 0) {
            cpuRelax();
            continue;
        }
        if (std::chrono::steady_clock::now() >= until)
            break;
        std::this_thread::yield();
    }
    for (;;) {
        sleeping.store(true, std::memory_order_seq_cst);
        const std::uint32_t seen = signal.load(std::memory_order_seq_cst);
        if (ready())
            break;
        signal.wait(seen, std::memory_order_seq_cst);
    }
    sleeping.store(false, std::memory_order_relaxed);
}

} // namespace

void
BatchHandoff::run(const std::function<void()>& produce,
                  const std::function<void()>& consume, NewThread side)
{
    // Runs before the new thread starts, so the thread's creation
    // orders the fresh state before its first push or pop.
    std::construct_at(&producer_);
    std::construct_at(&consumer_);
    taken_ = 0;
    std::exception_ptr producerError;
    const auto producerSide = [&] {
        try {
            produce();
        } catch (...) {
            producerError = std::current_exception();
        }
        // Publish the last batch, then the end marker.
        producer_.count.fetch_add(1, std::memory_order_release);
        producer_.done.store(true, std::memory_order_release);
        wake(producer_, consumer_);
    };
    std::exception_ptr consumerError;
    const auto consumerSide = [&] {
        try {
            consume();
        } catch (...) {
            consumerError = std::current_exception();
        }
        // A consumer that returned or threw early may leave the
        // producer waiting for a batch: let its next handoff fail.
        consumer_.done.store(true, std::memory_order_release);
        wake(consumer_, producer_);
    };
    if (side == NewThread::Consumer) {
        std::thread consumer(consumerSide);
        producerSide();
        consumer.join();
    } else {
        std::thread producer(producerSide);
        consumerSide();
        producer.join();
    }
    if (consumerError)
        std::rethrow_exception(consumerError);
    if (producerError)
        std::rethrow_exception(producerError);
}

void
BatchHandoff::wake(Side& self, const Side& other)
{
    self.signal.fetch_add(1, std::memory_order_seq_cst);
    if (other.sleeping.load(std::memory_order_seq_cst))
        self.signal.notify_one();
}

bool
BatchHandoff::handOff(std::uint64_t& next)
{
    const std::uint64_t published =
        producer_.count.fetch_add(1, std::memory_order_release) + 1;
    wake(producer_, consumer_);
    // The next batch is free once the consumer has released all but
    // two; a stopped consumer reads no batch any more.
    bool stopped = false;
    awaitSignal(consumer_.signal, producer_.sleeping, [&] {
        stopped = consumer_.done.load(std::memory_order_acquire);
        return stopped ||
            published - consumer_.count.load(std::memory_order_acquire) <
            kBatches;
    });
    next = published;
    return !stopped;
}

bool
BatchHandoff::take(std::uint64_t& batch)
{
    if (consumer_.count.load(std::memory_order_relaxed) != taken_) {
        consumer_.count.store(taken_, std::memory_order_release);
        wake(consumer_, producer_);
    }
    // Load order: done before count, so a closed producer's count
    // includes its last batch.
    std::uint64_t published = 0;
    awaitSignal(producer_.signal, consumer_.sleeping, [&] {
        const bool closed = producer_.done.load(std::memory_order_acquire);
        published = producer_.count.load(std::memory_order_acquire);
        return closed || published > taken_;
    });
    if (published == taken_)
        return false;
    batch = taken_++;
    return true;
}

} // namespace flashcache
