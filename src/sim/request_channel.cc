#include "sim/request_channel.hh"

#include <bit>
#include <chrono>
#include <exception>
#include <thread>

namespace flashcache {

namespace {

/**
 * How long a waiter polls the other side before it sleeps. A side
 * that is running publishes every few microseconds, so a waiter this
 * patient rarely sleeps while the other side works; on a virtual
 * machine, waking a sleeping (halted) CPU can take far longer than
 * the wait itself. The poll yields every kYieldEvery tries, so on one
 * CPU the other side runs at once instead of the poll burning the
 * time slice.
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
 * (seq_cst) after each publish and then reads `sleeping` (seq_cst):
 * either it sees the flag and may notify, or this side's re-check
 * after raising the flag sees its publish, or the futex wait sees
 * the bumped signal and returns at once. No wake-up is lost. Only
 * the waiter writes its flag.
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

RequestChannel::RequestChannel(std::size_t recordSlots,
                               std::size_t demandSlots)
    : records_(std::bit_ceil(std::max<std::size_t>(recordSlots, 1))),
      demands_(std::bit_ceil(std::max<std::size_t>(demandSlots, 1))),
      recMask_(records_.size() - 1), demMask_(demands_.size() - 1)
{
}

void
RequestChannel::reset()
{
    prodShared_.recPub.store(0, std::memory_order_relaxed);
    prodShared_.demPub.store(0, std::memory_order_relaxed);
    prodShared_.sleeping.store(false, std::memory_order_relaxed);
    prodShared_.closed.store(false, std::memory_order_relaxed);
    consShared_.recRel.store(0, std::memory_order_relaxed);
    consShared_.demRel.store(0, std::memory_order_relaxed);
    consShared_.sleeping.store(false, std::memory_order_relaxed);
    consShared_.stopped.store(false, std::memory_order_relaxed);
    prod_ = Producer{};
    cons_.recRead = cons_.demRead = cons_.recSeen = cons_.demSeen = 0;
    cons_.held = 0;
    cons_.unreleased = 0;
    cons_.woke = false;
    cons_.ended = false;
}

void
RequestChannel::run(const std::function<void()>& produce,
                    const std::function<void()>& consume)
{
    // Runs before the consumer thread starts, so the thread's creation
    // orders the reset before its first pop.
    reset();
    std::exception_ptr consumerError;
    std::thread consumer([&] {
        try {
            consume();
        } catch (...) {
            consumerError = std::current_exception();
        }
        // A consumer that returned or threw early may leave the
        // producer waiting for space: let its next push fail instead.
        stop();
    });
    std::exception_ptr producerError;
    try {
        produce();
    } catch (...) {
        producerError = std::current_exception();
    }
    close();
    consumer.join();
    if (consumerError)
        std::rethrow_exception(consumerError);
    if (producerError)
        std::rethrow_exception(producerError);
}

// ------------------------------------------------------------- producer

void
RequestChannel::publish(bool force)
{
    Producer& p = prod_;
    prodShared_.demPub.store(p.demWrite, std::memory_order_release);
    prodShared_.recPub.store(p.recWrite, std::memory_order_release);
    p.unpublished = 0;
    prodShared_.signal.fetch_add(1, std::memory_order_seq_cst);
    if (!consShared_.sleeping.load(std::memory_order_seq_cst)) {
        p.woke = false;
        return;
    }
    if (!force && !p.woke) {
        // A sleeping consumer has released all it consumed; wake it
        // once half a ring of work waits, and only once: until it is
        // seen awake, later publishes would repeat the system call.
        p.recFree = consShared_.recRel.load(std::memory_order_acquire);
        p.demFree = consShared_.demRel.load(std::memory_order_acquire);
        force = 2 * (p.recWrite - p.recFree) >= records_.size() ||
            2 * (p.demWrite - p.demFree) >= demands_.size();
    }
    if (force) {
        prodShared_.signal.notify_one();
        p.woke = true;
    }
}

bool
RequestChannel::awaitSlot(bool demand)
{
    Producer& p = prod_;
    bool stopped = false;
    const auto ready = [&] {
        stopped = consShared_.stopped.load(std::memory_order_acquire);
        p.recFree = consShared_.recRel.load(std::memory_order_acquire);
        p.demFree = consShared_.demRel.load(std::memory_order_acquire);
        return stopped ||
            (demand ? p.demWrite - p.demFree < demands_.size()
                    : p.recWrite - p.recFree < records_.size());
    };
    if (!ready()) {
        publish(true);
        awaitSignal(consShared_.signal, prodShared_.sleeping, ready);
    }
    return !stopped;
}

void
RequestChannel::close()
{
    Producer& p = prod_;
    prodShared_.demPub.store(p.demWrite, std::memory_order_release);
    prodShared_.recPub.store(p.recWrite, std::memory_order_release);
    prodShared_.closed.store(true, std::memory_order_release);
    prodShared_.signal.fetch_add(1, std::memory_order_seq_cst);
    if (consShared_.sleeping.load(std::memory_order_seq_cst))
        prodShared_.signal.notify_one();
}

// ------------------------------------------------------------- consumer

void
RequestChannel::release(bool force)
{
    Consumer& c = cons_;
    consShared_.recRel.store(c.recRead, std::memory_order_release);
    consShared_.demRel.store(c.demRead, std::memory_order_release);
    c.unreleased = 0;
    consShared_.signal.fetch_add(1, std::memory_order_seq_cst);
    if (!prodShared_.sleeping.load(std::memory_order_seq_cst)) {
        c.woke = false;
        return;
    }
    if (!force && !c.woke) {
        // A sleeping producer has published all it wrote; wake it
        // once the rings are at most half full, and only once.
        c.recSeen = prodShared_.recPub.load(std::memory_order_acquire);
        c.demSeen = prodShared_.demPub.load(std::memory_order_acquire);
        force = 2 * (c.recSeen - c.recRead) <= records_.size() &&
            2 * (c.demSeen - c.demRead) <= demands_.size();
    }
    if (force) {
        consShared_.signal.notify_one();
        c.woke = true;
    }
}

bool
RequestChannel::awaitRecord()
{
    Consumer& c = cons_;
    if (c.ended)
        return false;
    // Load order: closed before the indices (a closed producer has
    // published everything), records before demands (a record's
    // demands are published no later than the record).
    bool closed = false;
    const auto ready = [&] {
        closed = prodShared_.closed.load(std::memory_order_acquire);
        c.recSeen = prodShared_.recPub.load(std::memory_order_acquire);
        c.demSeen = prodShared_.demPub.load(std::memory_order_acquire);
        return closed || c.recRead < c.recSeen;
    };
    if (!ready()) {
        release(true);
        awaitSignal(prodShared_.signal, consShared_.sleeping, ready);
    }
    if (c.recRead < c.recSeen)
        return true;
    c.ended = true;
    return false;
}

void
RequestChannel::awaitDemands(std::uint64_t target)
{
    Consumer& c = cons_;
    release(true);
    awaitSignal(prodShared_.signal, consShared_.sleeping, [&] {
        c.demSeen = prodShared_.demPub.load(std::memory_order_acquire);
        return c.demSeen >= target;
    });
}

std::span<const sched::Demand>
RequestChannel::gather(std::uint64_t count)
{
    Consumer& c = cons_;
    const std::uint64_t end = c.demRead + count;
    const std::size_t at = c.demRead & demMask_;
    c.demSeen = prodShared_.demPub.load(std::memory_order_acquire);
    if (at + count <= demands_.size()) {
        if (c.demSeen < end)
            awaitDemands(end);
        c.held = count;
        return {&demands_[at], count};
    }
    // Wraps the ring's end or outgrows it: copy it out piece by piece.
    // Each wait releases the slots copied so far, so the producer can
    // write the rest.
    c.scratch.clear();
    while (c.demRead < end) {
        if (c.demSeen == c.demRead)
            awaitDemands(c.demRead + 1);
        const std::size_t from = c.demRead & demMask_;
        const std::size_t n = std::min<std::size_t>(
            std::min(c.demSeen, end) - c.demRead, demands_.size() - from);
        c.scratch.insert(c.scratch.end(), &demands_[from],
                         &demands_[from] + n);
        c.demRead += n;
    }
    return c.scratch;
}

void
RequestChannel::stop()
{
    consShared_.stopped.store(true, std::memory_order_release);
    consShared_.signal.fetch_add(1, std::memory_order_seq_cst);
    consShared_.signal.notify_one();
}

} // namespace flashcache
