/**
 * @file
 * Allocation-path edge cases: mixed-density blocks, SLC cursor
 * formatting, cursor recovery after retirement, LRU/FCHT stress
 * against the seed reference implementations, and the
 * zero-steady-state-allocation guarantee of the serving hot path
 * (global operator new/delete are replaced with counting versions).
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <deque>
#include <new>
#include <unordered_set>

#include "core/flash_cache.hh"
#include "core/lru.hh"
#include "core/tables.hh"
#include "support/fcht_chained.hh"
#include "support/lru_list.hh"
#include "util/rng.hh"

// ---------------------------------------------------------------------
// Counting allocator overrides (global scope, required by [new.delete]).
// The replacement new uses malloc and the replacement delete frees it;
// GCC cannot see the pairing across the replacement boundary, so the
// mismatch warning is a false positive here.
// ---------------------------------------------------------------------

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

namespace {
std::uint64_t g_allocCount = 0;
} // namespace

void*
operator new(std::size_t n)
{
    ++g_allocCount;
    if (void* p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void*
operator new[](std::size_t n)
{
    return operator new(n);
}

void*
operator new(std::size_t n, const std::nothrow_t&) noexcept
{
    ++g_allocCount;
    return std::malloc(n ? n : 1);
}

void*
operator new[](std::size_t n, const std::nothrow_t& t) noexcept
{
    return operator new(n, t);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void
operator delete(void* p, const std::nothrow_t&) noexcept
{
    std::free(p);
}
void
operator delete[](void* p, const std::nothrow_t&) noexcept
{
    std::free(p);
}

namespace flashcache {
namespace {

FlashGeometry
geom(std::uint32_t blocks = 16, std::uint16_t frames = 8)
{
    FlashGeometry g;
    g.numBlocks = blocks;
    g.framesPerBlock = frames;
    return g;
}

WearParams
noWear()
{
    WearParams wp;
    wp.nominalCycles = 1e9;
    return wp;
}

TEST(AllocationTest, SlcFormattingHalvesBlockCapacity)
{
    // Saturate hot pages so migration creates SLC blocks, then
    // verify the capacity accounting reflects 1 page per SLC frame.
    CellLifetimeModel lifetime(noWear());
    FlashDevice device(geom(), FlashTiming(), lifetime, 1);
    FlashMemoryController ctrl(device);
    FixedLatencyStore store;
    FlashCacheConfig cfg;
    cfg.accessSaturation = 8;
    FlashCache cache(ctrl, store, cfg);

    const std::uint64_t before = cache.capacityPages();
    for (int round = 0; round < 30; ++round)
        for (Lba l = 0; l < 10; ++l)
            cache.read(l);
    ASSERT_GT(cache.stats().hotMigrations, 0u);

    std::uint32_t slc_frames = 0;
    for (std::uint32_t b = 0; b < 16; ++b)
        for (std::uint16_t f = 0; f < 8; ++f)
            slc_frames += device.frameMode(b, f) == DensityMode::SLC;
    ASSERT_GT(slc_frames, 0u);
    EXPECT_EQ(cache.capacityPages(), before - slc_frames);
    cache.checkInvariants();
}

TEST(AllocationTest, MixedBlockSlotsCountedCorrectly)
{
    // Reconfiguration-driven SLC switches produce mixed blocks;
    // occupancy and invariants must stay exact through them.
    WearParams wp;
    wp.nominalCycles = 60;
    wp.sigmaDecades = 0.8;
    CellLifetimeModel lifetime(wp);
    FlashDevice device(geom(), FlashTiming(), lifetime, 2);
    FlashMemoryController ctrl(device);
    FixedLatencyStore store;
    FlashCacheConfig cfg;
    cfg.hotPageMigration = false;
    cfg.agingWindow = 1 << 12;
    FlashCache cache(ctrl, store, cfg);

    Rng rng(3);
    for (int i = 0; i < 80000 && !cache.failed(); ++i) {
        const Lba l = rng.uniformInt(128);
        if (rng.bernoulli(0.5))
            cache.write(l);
        else
            cache.read(l);
        if (i % 10000 == 9999)
            cache.checkInvariants();
    }
    // The run must have exercised density switching.
    EXPECT_GT(cache.stats().densityReconfigs, 0u);
    EXPECT_LE(cache.occupancy(), 1.0);
}

TEST(AllocationTest, SurvivesWriteRegionRetirement)
{
    // Retiring blocks under the allocator (including possibly its
    // cursor block) must never wedge allocation while usable blocks
    // remain.
    WearParams wp;
    wp.nominalCycles = 15;
    wp.sigmaDecades = 0.6;
    CellLifetimeModel lifetime(wp);
    FlashDevice device(geom(12, 4), FlashTiming(), lifetime, 4);
    FlashMemoryController ctrl(device);
    FixedLatencyStore store;
    FlashCacheConfig cfg;
    cfg.maxEccStrength = 3;
    cfg.hotPageMigration = false;
    FlashCache cache(ctrl, store, cfg);

    Rng rng(5);
    std::uint64_t n = 0;
    while (n < 3000000 && !cache.failed()) {
        const Lba l = rng.uniformInt(48);
        if (rng.bernoulli(0.7))
            cache.write(l);
        else
            cache.read(l);
        ++n;
    }
    EXPECT_TRUE(cache.failed());
    EXPECT_GE(cache.stats().retiredBlocks, 1u);
    cache.checkInvariants();
    // Even a failed cache answers reads (through the disk).
    EXPECT_GE(cache.read(7).latency, 0.0);
}

TEST(LruStressTest, MatchesReferenceImplementation)
{
    // Randomized differential test of LruList against a deque-based
    // reference.
    LruList<int> lru;
    std::deque<int> ref; // front = MRU
    Rng rng(6);
    for (int i = 0; i < 20000; ++i) {
        const int k = static_cast<int>(rng.uniformInt(50));
        const double op = rng.uniform();
        if (op < 0.5) {
            lru.touch(k);
            for (auto it = ref.begin(); it != ref.end(); ++it) {
                if (*it == k) {
                    ref.erase(it);
                    break;
                }
            }
            ref.push_front(k);
        } else if (op < 0.7) {
            const bool had = lru.erase(k);
            bool ref_had = false;
            for (auto it = ref.begin(); it != ref.end(); ++it) {
                if (*it == k) {
                    ref.erase(it);
                    ref_had = true;
                    break;
                }
            }
            EXPECT_EQ(had, ref_had);
        } else if (!ref.empty()) {
            EXPECT_EQ(lru.popLru(), ref.back());
            ref.pop_back();
        }
        ASSERT_EQ(lru.size(), ref.size());
        if (!ref.empty()) {
            ASSERT_EQ(*lru.begin(), ref.front());
            ASSERT_EQ(lru.lru(), ref.back());
        }
    }
    // Full order agreement at the end.
    std::vector<int> got(lru.begin(), lru.end());
    std::vector<int> want(ref.begin(), ref.end());
    EXPECT_EQ(got, want);
}

TEST(LruStressTest, IntrusiveMatchesSeedLruList)
{
    // The intrusive replacement must order and evict exactly like the
    // seed list under a randomized op stream.
    LruList<std::uint32_t> seed;
    IntrusiveLru lru(64);
    Rng rng(11);
    for (int i = 0; i < 50000; ++i) {
        const std::uint32_t k = rng.uniformInt(64);
        const double op = rng.uniform();
        if (op < 0.5) {
            seed.touch(k);
            lru.touch(k);
        } else if (op < 0.7) {
            ASSERT_EQ(lru.erase(k), seed.erase(k));
        } else if (!seed.empty()) {
            ASSERT_EQ(lru.popLru(), seed.popLru());
        }
        ASSERT_EQ(lru.size(), seed.size());
        ASSERT_EQ(lru.contains(k), seed.contains(k));
        if (!seed.empty()) {
            ASSERT_EQ(*lru.begin(), *seed.begin());
            ASSERT_EQ(lru.lru(), seed.lru());
        }
    }
    const std::vector<std::uint32_t> got(lru.begin(), lru.end());
    const std::vector<std::uint32_t> want(seed.begin(), seed.end());
    EXPECT_EQ(got, want);
}

TEST(LruStressTest, KeyedMatchesSeedLruList)
{
    // The PDC against two seed lists (recency and dirty) under
    // SystemSimulator::serve()'s op mix: read and write touches,
    // fills that evict at capacity, and batched write-back of the
    // coldest dirty pages. Every victim, every written-back page and
    // the final drain order must agree, through slot reuse.
    constexpr std::uint32_t kCapacity = 48;
    Pdc pdc(kCapacity);
    LruList<Lba> recency;
    LruList<Lba> dirty;
    Rng rng(12);
    std::uint64_t evictions = 0;
    std::uint64_t writebacks = 0;
    const auto evictOne = [&] {
        const Pdc::Victim v = pdc.evict();
        const Lba want = recency.popLru();
        ASSERT_EQ(v.lba, want);
        ASSERT_EQ(v.dirty, dirty.erase(want));
        ++evictions;
    };
    for (int i = 0; i < 50000; ++i) {
        // Sparse keys exercise the LBA index for real.
        const Lba k = 1 + rng.uniformInt(96) * 0x9E3779B97ull;
        const double op = rng.uniform();
        if (op < 0.9) {
            const bool write = op < 0.45;
            const bool hit = pdc.touch(k, write);
            ASSERT_EQ(hit, recency.contains(k));
            if (!hit) {
                if (pdc.full())
                    evictOne();
                pdc.insert(k, write);
            }
            recency.touch(k);
            if (write)
                dirty.touch(k);
        } else {
            for (int b = 0; b < 4 && !dirty.empty(); ++b) {
                ASSERT_EQ(pdc.popDirty(), dirty.popLru());
                ++writebacks;
            }
        }
        ASSERT_EQ(pdc.size(), recency.size());
        ASSERT_EQ(pdc.dirtyPages(), dirty.size());
    }
    EXPECT_GT(evictions, 1000u);
    EXPECT_GT(writebacks, 1000u);
    // Drain: the full eviction order and dirty bits must agree.
    while (pdc.size() > 0)
        evictOne();
    EXPECT_TRUE(recency.empty());
    EXPECT_TRUE(dirty.empty());
}

TEST(FchtStressTest, OpenAddressedMatchesSeedChains)
{
    // The open-addressed FCHT must answer every lookup exactly like
    // the seed chained table through inserts, updates, erases and
    // load-factor growth.
    FchtChained seed(64);
    Fcht fcht;
    std::vector<bool> present(512, false);
    Rng rng(13);
    std::uint64_t next_page = 0;
    for (int i = 0; i < 60000; ++i) {
        const std::size_t k = rng.uniformInt(512);
        const Lba lba = 7 + k * 0x100000001ull;
        const double op = rng.uniform();
        if (op < 0.45) {
            if (!present[k]) {
                seed.insert(lba, next_page);
                fcht.insert(lba, next_page);
                ++next_page;
                present[k] = true;
            }
        } else if (op < 0.65) {
            ASSERT_EQ(fcht.erase(lba), seed.erase(lba));
            present[k] = false;
        } else if (op < 0.8) {
            if (present[k]) {
                seed.update(lba, next_page);
                fcht.update(lba, next_page);
                ++next_page;
            }
        }
        ASSERT_EQ(fcht.find(lba), seed.find(lba));
        ASSERT_EQ(fcht.size(), seed.size());
    }
    // Sweep the whole key space: every mapping agrees, absent keys
    // miss in both.
    for (std::size_t k = 0; k < 512; ++k) {
        const Lba lba = 7 + k * 0x100000001ull;
        ASSERT_EQ(fcht.find(lba), seed.find(lba));
        ASSERT_EQ(fcht.find(lba) != Fcht::npos, !!present[k]);
    }
}

TEST(AllocationTest, ServingHotPathIsAllocationFree)
{
    // The tentpole guarantee: once the cache is warm, reads and
    // writes — including GC victim selection, block eviction, and
    // out-of-place rewrites — never touch the heap.
    CellLifetimeModel lifetime(noWear());
    FlashDevice device(geom(), FlashTiming(), lifetime, 21);
    // Pre-warm the device's lazily sampled per-frame health state
    // (first hardErrors() query after damage accrues allocates the
    // weak-cell table); one erase puts damage on every frame.
    for (std::uint32_t b = 0; b < 16; ++b) {
        device.eraseBlock(b);
        for (std::uint16_t f = 0; f < 8; ++f)
            device.hardErrors({b, f, 0});
    }
    FlashMemoryController ctrl(device);
    FixedLatencyStore store;
    FlashCacheConfig cfg;
    cfg.hotPageMigration = false;
    FlashCache cache(ctrl, store, cfg);

    // Warm until the loop has exercised both GC and eviction. Reads
    // span more LBAs than the cache holds (forces read-region
    // eviction); writes rewrite a hot subset (forces write-region
    // GC).
    Rng rng(22);
    auto one_op = [&] {
        if (rng.bernoulli(0.7))
            cache.read(rng.uniformInt(300));
        else
            cache.write(rng.uniformInt(64));
    };
    int warm = 0;
    while ((cache.stats().gcRuns == 0 || cache.stats().evictions == 0) &&
           warm < 200000) {
        one_op();
        ++warm;
    }
    ASSERT_GT(cache.stats().gcRuns, 0u);
    ASSERT_GT(cache.stats().evictions, 0u);

    const std::uint64_t gc_before = cache.stats().gcRuns;
    const std::uint64_t ev_before = cache.stats().evictions;
    const std::uint64_t allocs_before = g_allocCount;
    for (int i = 0; i < 30000; ++i)
        one_op();
    const std::uint64_t allocs = g_allocCount - allocs_before;

    // The measured window must itself contain GC and eviction work,
    // or the zero-allocation claim would be vacuous.
    EXPECT_GT(cache.stats().gcRuns, gc_before);
    EXPECT_GT(cache.stats().evictions, ev_before);
    EXPECT_EQ(allocs, 0u);
    cache.checkInvariants();
}

TEST(AllocationTest, PdcServingIsAllocationFreeOnceReserved)
{
    // The Pdc sizes everything at construction: steady-state touches,
    // fills that evict at capacity and write-back stay off the heap.
    Pdc pdc(256);
    Rng rng(23);
    auto one_op = [&] {
        const Lba k = rng.uniformInt(10000);
        const double op = rng.uniform();
        if (op < 0.9) {
            const bool write = op < 0.4;
            if (!pdc.touch(k, write)) {
                if (pdc.full())
                    pdc.evict();
                pdc.insert(k, write);
            }
        } else {
            for (int i = 0; i < 16 && pdc.dirtyPages() > 0; ++i)
                pdc.popDirty();
        }
    };
    for (int i = 0; i < 1000; ++i)
        one_op();
    const std::uint64_t before = g_allocCount;
    for (int i = 0; i < 100000; ++i)
        one_op();
    EXPECT_EQ(g_allocCount - before, 0u);
}

TEST(AllocationTest, UnifiedAndSplitAgreeOnTotalCapacity)
{
    CellLifetimeModel lifetime(noWear());
    for (const bool split : {false, true}) {
        FlashDevice device(geom(), FlashTiming(), lifetime, 7);
        FlashMemoryController ctrl(device);
        FixedLatencyStore store;
        FlashCacheConfig cfg;
        cfg.splitRegions = split;
        FlashCache cache(ctrl, store, cfg);
        EXPECT_EQ(cache.capacityPages(), 16u * 8 * 2) << split;
    }
}

} // namespace
} // namespace flashcache
