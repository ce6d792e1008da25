/**
 * @file
 * Tests of the producer/consumer request channel on its own: order,
 * the sticky end marker, requests larger than a batch, the partial
 * last batch, span lifetime, reuse across runs, and exception
 * propagation from either thread; the same with the producer on the
 * new thread, and the draw hop's typed batches; plus a generator that
 * throws inside SystemSimulator::run().
 *
 * Batches of 1, 2 and 8 requests make every handoff and every wait
 * for a full pipeline run many times per test.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <thread>
#include <vector>

#include "sim/request_channel.hh"
#include "sim/system_sim.hh"
#include "workload/macro.hh"

namespace flashcache {
namespace {

using sched::Demand;
using sched::ResourceKind;

/** The engine hop: compute time plus demands. */
using EngineChannel = RequestChannel<Seconds>;
using DrawChannel = RequestChannel<DrawnRequest>;
using NewThread = BatchHandoff::NewThread;

constexpr std::size_t kBatchSizes[] = {1, 2, 8};

/** Demand j of request i: every field derived from (i, j). */
Demand
demandOf(std::uint64_t i, std::uint64_t j)
{
    return {static_cast<ResourceKind>((i + j) % 4),
            static_cast<std::uint16_t>(j % 65536),
            static_cast<Seconds>(i) * 1e3 + static_cast<Seconds>(j),
            (i ^ j) % 3 == 0};
}

/** Demand count of request i; every 97th is `big`. */
std::uint64_t
countOf(std::uint64_t i, std::uint64_t big)
{
    return i % 97 == 96 ? big : i % 11;
}

/** Push n scripted requests; stop early if the consumer stops. */
void
produceScript(EngineChannel& ch, std::uint64_t n, std::uint64_t big)
{
    std::vector<Demand> ds;
    for (std::uint64_t i = 0; i < n; ++i) {
        ds.clear();
        for (std::uint64_t j = 0; j < countOf(i, big); ++j)
            ds.push_back(demandOf(i, j));
        if (!ch.push(static_cast<Seconds>(i), ds))
            return;
    }
}

/** Pop until the end marker, checking each request against the
 *  script; returns the count. */
std::uint64_t
consumeScript(EngineChannel& ch, std::uint64_t big)
{
    std::uint64_t i = 0;
    Seconds compute = 0;
    std::span<const Demand> ds;
    while (ch.pop(compute, ds)) {
        EXPECT_EQ(compute, static_cast<Seconds>(i));
        EXPECT_EQ(ds.size(), countOf(i, big)) << "request " << i;
        for (std::uint64_t j = 0; j < ds.size(); ++j) {
            const Demand want = demandOf(i, j);
            EXPECT_EQ(ds[j].kind, want.kind);
            EXPECT_EQ(ds[j].channel, want.channel);
            EXPECT_EQ(ds[j].service, want.service);
            EXPECT_EQ(ds[j].background, want.background);
        }
        ++i;
    }
    return i;
}

TEST(RequestChannelTest, RecordsComeOutInPushOrder)
{
    for (const std::size_t batch : kBatchSizes) {
        SCOPED_TRACE(batch);
        EngineChannel ch(batch);
        std::uint64_t got = 0;
        ch.run([&] { produceScript(ch, 20000, 20); },
               [&] { got = consumeScript(ch, 20); });
        EXPECT_EQ(got, 20000u);
    }
}

TEST(RequestChannelTest, EveryReadAfterTheEndMarkerIsFalse)
{
    for (const std::size_t batch : kBatchSizes) {
        SCOPED_TRACE(batch);
        EngineChannel ch(batch);
        ch.run([&] { produceScript(ch, 5, 0); },
               [&] {
                   EXPECT_EQ(consumeScript(ch, 0), 5u);
                   Seconds compute = 0;
                   std::span<const Demand> ds;
                   for (int k = 0; k < 10; ++k)
                       EXPECT_FALSE(ch.pop(compute, ds));
               });
    }
}

TEST(RequestChannelTest, RequestLargerThanABatchPassesIntact)
{
    // Requests of up to 1,000 demands through batches of a few
    // requests: a batch grows to hold whatever it is given.
    for (const std::size_t batch : kBatchSizes) {
        SCOPED_TRACE(batch);
        EngineChannel ch(batch);
        std::uint64_t got = 0;
        ch.run([&] { produceScript(ch, 2000, 1000); },
               [&] { got = consumeScript(ch, 1000); });
        EXPECT_EQ(got, 2000u);
    }

    // Default batches: two requests of 49,157 demands each.
    EngineChannel wide;
    std::uint64_t got = 0;
    wide.run([&] { produceScript(wide, 200, 49157); },
             [&] { got = consumeScript(wide, 49157); });
    EXPECT_EQ(got, 200u);
}

TEST(RequestChannelTest, PartialLastBatchArrivesIntact)
{
    // Five requests never fill a default batch: only the close
    // publishes them.
    EngineChannel ch;
    std::uint64_t got = 0;
    ch.run([&] { produceScript(ch, 5, 20); },
           [&] { got = consumeScript(ch, 20); });
    EXPECT_EQ(got, 5u);
}

TEST(RequestChannelTest, SpanStaysValidUntilTheNextPop)
{
    // One request per batch: a batch released when it is taken would
    // be refilled by the producer while the consumer sleeps.
    EngineChannel ch(1);
    std::uint64_t got = 0;
    ch.run([&] { produceScript(ch, 50, 20); },
           [&] {
               Seconds compute = 0;
               std::span<const Demand> ds;
               while (ch.pop(compute, ds)) {
                   const std::vector<Demand> copy(ds.begin(), ds.end());
                   std::this_thread::sleep_for(std::chrono::milliseconds(2));
                   ASSERT_EQ(ds.size(), countOf(got, 20));
                   for (std::size_t j = 0; j < ds.size(); ++j) {
                       EXPECT_EQ(ds[j].service, copy[j].service);
                       EXPECT_EQ(ds[j].service, demandOf(got, j).service);
                   }
                   ++got;
               }
           });
    EXPECT_EQ(got, 50u);
}

TEST(RequestChannelTest, ChannelIsReusableAcrossRuns)
{
    for (const std::size_t batch : kBatchSizes) {
        SCOPED_TRACE(batch);
        EngineChannel ch(batch);
        for (const std::uint64_t n : {0u, 1u, 17u, 1000u}) {
            std::uint64_t got = 0;
            ch.run([&] { produceScript(ch, n, 40); },
                   [&] { got = consumeScript(ch, 40); });
            EXPECT_EQ(got, n);
        }
    }
}

TEST(RequestChannelTest, ProducerExceptionIsRethrownAfterTheJoin)
{
    for (const std::size_t batch : kBatchSizes) {
        SCOPED_TRACE(batch);
        EngineChannel ch(batch);
        std::uint64_t got = 0;
        EXPECT_THROW(ch.run(
                         [&] {
                             produceScript(ch, 500, 20);
                             throw std::runtime_error("generator failed");
                         },
                         [&] { got = consumeScript(ch, 20); }),
                     std::runtime_error);
        // The requests pushed before the throw still reached the
        // consumer.
        EXPECT_EQ(got, 500u);
    }
}

TEST(RequestChannelTest, ConsumerExceptionStopsTheProducer)
{
    for (const std::size_t batch : kBatchSizes) {
        SCOPED_TRACE(batch);
        EngineChannel ch(batch);
        bool producerReturned = false;
        EXPECT_THROW(ch.run(
                         [&] {
                             // Unbounded: only the stop ends it.
                             produceScript(ch, ~0ull, 20);
                             producerReturned = true;
                         },
                         [&] {
                             Seconds compute = 0;
                             std::span<const Demand> ds;
                             for (int k = 0; k < 100; ++k)
                                 ASSERT_TRUE(ch.pop(compute, ds));
                             throw std::logic_error("engine failed");
                         }),
                     std::logic_error);
        EXPECT_TRUE(producerReturned);
    }
}

TEST(RequestChannelTest, ConsumerReturningEarlyStopsTheProducer)
{
    for (const std::size_t batch : kBatchSizes) {
        SCOPED_TRACE(batch);
        EngineChannel ch(batch);
        bool producerReturned = false;
        ch.run(
            [&] {
                produceScript(ch, ~0ull, 20);
                producerReturned = true;
            },
            [] {});
        EXPECT_TRUE(producerReturned);
    }
}

TEST(RequestChannelTest, ProducerOnTheNewThreadKeepsPushOrder)
{
    // SystemSimulator's draw hop: the producer gets the new thread
    // and the consumer runs on the caller.
    for (const std::size_t batch : kBatchSizes) {
        SCOPED_TRACE(batch);
        EngineChannel ch(batch);
        for (const std::uint64_t n : {0u, 1u, 17u, 5000u}) {
            std::uint64_t got = 0;
            ch.run([&] { produceScript(ch, n, 40); },
                   [&] {
                       got = consumeScript(ch, 40);
                       Seconds compute = 0;
                       std::span<const Demand> ds;
                       EXPECT_FALSE(ch.pop(compute, ds));
                   },
                   NewThread::Producer);
            EXPECT_EQ(got, n);
        }
    }
}

TEST(RequestChannelTest, ProducerOnTheNewThreadPropagatesExceptions)
{
    for (const std::size_t batch : kBatchSizes) {
        SCOPED_TRACE(batch);
        EngineChannel ch(batch);
        std::uint64_t got = 0;
        EXPECT_THROW(ch.run(
                         [&] {
                             produceScript(ch, 500, 20);
                             throw std::runtime_error("generator failed");
                         },
                         [&] { got = consumeScript(ch, 20); },
                         NewThread::Producer),
                     std::runtime_error);
        EXPECT_EQ(got, 500u);

        bool producerReturned = false;
        EXPECT_THROW(ch.run(
                         [&] {
                             produceScript(ch, ~0ull, 20);
                             producerReturned = true;
                         },
                         [&] {
                             Seconds compute = 0;
                             std::span<const Demand> ds;
                             for (int k = 0; k < 100; ++k)
                                 ASSERT_TRUE(ch.pop(compute, ds));
                             throw std::logic_error("model failed");
                         },
                         NewThread::Producer),
                     std::logic_error);
        EXPECT_TRUE(producerReturned);

        producerReturned = false;
        ch.run(
            [&] {
                produceScript(ch, ~0ull, 20);
                producerReturned = true;
            },
            [] {}, NewThread::Producer);
        EXPECT_TRUE(producerReturned);
    }
}

/** Drawn request i: every field derived from i. */
DrawnRequest
drawnOf(std::uint64_t i)
{
    DrawnRequest d;
    d.record.lba = i * 2654435761u;
    d.record.isWrite = i % 3 == 0;
    d.compute = static_cast<Seconds>(i) * 1e-6;
    return d;
}

TEST(RequestChannelTest, DrawnRequestsComeOutInPushOrder)
{
    // The draw hop's typed batches, on either side of the new thread.
    for (const NewThread side : {NewThread::Producer, NewThread::Consumer}) {
        for (const std::size_t batch : kBatchSizes) {
            SCOPED_TRACE(batch);
            DrawChannel ch(batch);
            for (const std::uint64_t n : {0u, 5u, 20000u}) {
                std::uint64_t got = 0;
                ch.run(
                    [&] {
                        for (std::uint64_t i = 0; i < n; ++i) {
                            if (!ch.push(drawnOf(i)))
                                return;
                        }
                    },
                    [&] {
                        DrawnRequest d;
                        while (ch.pop(d)) {
                            const DrawnRequest want = drawnOf(got);
                            EXPECT_EQ(d.record, want.record);
                            EXPECT_EQ(d.compute, want.compute);
                            ++got;
                        }
                        EXPECT_FALSE(ch.pop(d));
                    },
                    side);
                EXPECT_EQ(got, n);
            }
        }
    }
}

/** Financial1 draws that throw at the given call. */
class FailingGenerator : public WorkloadGenerator
{
  public:
    explicit FailingGenerator(std::uint64_t failAt)
        : inner_(makeMacro(macroConfig("Financial1", 0.02))),
          failAt_(failAt)
    {
    }

    TraceRecord
    next(Rng& rng) override
    {
        if (calls_++ == failAt_)
            throw std::runtime_error("trace source failed");
        return inner_->next(rng);
    }

    std::string name() const override { return inner_->name(); }

    std::uint64_t
    workingSetPages() const override
    {
        return inner_->workingSetPages();
    }

  private:
    std::unique_ptr<WorkloadGenerator> inner_;
    std::uint64_t failAt_;
    std::uint64_t calls_ = 0;
};

TEST(RequestChannelTest, GeneratorExceptionPropagatesFromSystemRun)
{
    SystemConfig cfg;
    cfg.dramBytes = mib(4);
    cfg.flashBytes = mib(8);
    cfg.seed = 5;
    SystemSimulator sim(cfg);
    FailingGenerator gen(3000);
    EXPECT_THROW(sim.run(gen, 10000), std::runtime_error);
    // Every request served before the throw was also replayed.
    EXPECT_EQ(sim.stats().requests, 3000u);
    EXPECT_EQ(sim.scheduler().requestsCompleted(), 3000u);
    EXPECT_EQ(sim.stats().requestLatency.total(), 3000u);

    // The simulator stays usable and continues the same clock.
    const Seconds wall = sim.stats().wallClock;
    auto more = makeMacro(macroConfig("Financial1", 0.02));
    sim.run(*more, 1000);
    EXPECT_EQ(sim.scheduler().requestsCompleted(), 4000u);
    EXPECT_GT(sim.stats().wallClock, wall);
}

} // namespace
} // namespace flashcache
