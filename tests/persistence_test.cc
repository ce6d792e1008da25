/**
 * @file
 * Warm-restart persistence tests (section 3: the management tables
 * are "read from the hard disk drive and stored in DRAM at
 * run-time"): a saved device+cache pair restored into fresh objects
 * must behave identically — same hits, same wear, same contents.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <sstream>
#include <string>
#include <utility>

#include "core/flash_cache.hh"
#include "util/rng.hh"

namespace flashcache {
namespace {

class NullStore : public BackingStore
{
  public:
    Seconds
    read(Lba lba) override
    {
        reads.push_back(lba);
        return milliseconds(4.2);
    }

    Seconds write(Lba) override { return milliseconds(4.2); }

    std::vector<Lba> reads;
};

FlashGeometry
geom()
{
    FlashGeometry g;
    g.numBlocks = 12;
    g.framesPerBlock = 8;
    return g;
}

TEST(PersistenceTest, WarmRestartPreservesCacheContents)
{
    CellLifetimeModel lifetime;
    std::stringstream dev_state, cache_state;
    std::vector<Lba> hot;
    for (Lba l = 0; l < 50; ++l)
        hot.push_back(l * 3);

    std::vector<Lba> cached_before;
    {
        FlashDevice device(geom(), FlashTiming(), lifetime, 99);
        FlashMemoryController ctrl(device);
        NullStore store;
        FlashCache cache(ctrl, store);

        Rng rng(1);
        for (int i = 0; i < 8000; ++i) {
            const Lba l = hot[rng.uniformInt(hot.size())];
            if (rng.bernoulli(0.3))
                cache.write(l);
            else
                cache.read(l);
        }
        cache.flushAll();
        cache.checkInvariants();
        for (const Lba l : hot) {
            if (cache.fcht().find(l) != Fcht::npos)
                cached_before.push_back(l);
        }
        device.saveState(dev_state);
        cache.saveState(cache_state);
    }
    ASSERT_GT(cached_before.size(), 10u);

    // "Reboot": fresh objects, state loaded back.
    FlashDevice device(geom(), FlashTiming(), lifetime, 99);
    FlashMemoryController ctrl(device);
    NullStore store;
    FlashCache cache(ctrl, store);
    device.loadState(dev_state);
    cache.loadState(cache_state);
    cache.checkInvariants();

    // Exactly the pages that were cached before the restart still
    // hit, without touching the disk.
    for (const Lba l : cached_before)
        EXPECT_TRUE(cache.read(l).hit) << l;
    EXPECT_TRUE(store.reads.empty());
}

TEST(PersistenceTest, WearSurvivesRestart)
{
    WearParams wp;
    wp.nominalCycles = 200;
    wp.sigmaDecades = 0.8;
    CellLifetimeModel lifetime(wp);
    std::stringstream dev_state;

    unsigned errors_before;
    {
        FlashDevice device(geom(), FlashTiming(), lifetime, 7);
        for (int i = 0; i < 4000; ++i)
            device.eraseBlock(3);
        device.programPage({3, 2, 0});
        errors_before = device.readPage({3, 2, 0}).hardBitErrors;
        EXPECT_GT(errors_before, 0u);
        device.saveState(dev_state);
    }

    FlashDevice device(geom(), FlashTiming(), lifetime, 7);
    device.loadState(dev_state);
    EXPECT_EQ(device.blockEraseCount(3), 4000u);
    EXPECT_DOUBLE_EQ(device.frameDamage(3, 2), 4000.0);
    EXPECT_TRUE(device.isProgrammed({3, 2, 0}));
    EXPECT_EQ(device.readPage({3, 2, 0}).hardBitErrors, errors_before);
}

TEST(PersistenceTest, DensityModesSurviveRestart)
{
    CellLifetimeModel lifetime;
    std::stringstream dev_state;
    {
        FlashDevice device(geom(), FlashTiming(), lifetime, 5);
        for (std::uint16_t f = 0; f < 8; ++f)
            device.requestFrameMode(2, f, DensityMode::SLC);
        device.eraseBlock(2);
        device.requestFrameMode(4, 1, DensityMode::SLC); // still pending
        device.saveState(dev_state);
    }
    FlashDevice device(geom(), FlashTiming(), lifetime, 5);
    device.loadState(dev_state);
    EXPECT_EQ(device.frameMode(2, 0), DensityMode::SLC);
    EXPECT_EQ(device.frameMode(4, 1), DensityMode::MLC);
    device.eraseBlock(4); // pending request applies after restart
    EXPECT_EQ(device.frameMode(4, 1), DensityMode::SLC);
}

TEST(PersistenceTest, RealDataPayloadsSurviveRestart)
{
    WearParams no_wear;
    no_wear.nominalCycles = 1e9;
    CellLifetimeModel lifetime(no_wear);
    std::stringstream dev_state;

    std::vector<std::uint8_t> content(2048);
    for (std::size_t i = 0; i < content.size(); ++i)
        content[i] = static_cast<std::uint8_t>(i * 31);

    {
        FlashDevice device(geom(), FlashTiming(), lifetime, 3, 0.0,
                           true);
        FlashMemoryController ctrl(device);
        PageDescriptor desc{4, DensityMode::MLC};
        ctrl.writePage({0, 0, 0}, desc, content.data());
        device.saveState(dev_state);
    }

    FlashDevice device(geom(), FlashTiming(), lifetime, 3, 0.0, true);
    FlashMemoryController ctrl(device);
    device.loadState(dev_state);
    std::vector<std::uint8_t> out(2048);
    PageDescriptor desc{4, DensityMode::MLC};
    const auto res = ctrl.readPage({0, 0, 0}, desc, out.data());
    EXPECT_NE(res.status, ReadStatus::Uncorrectable);
    EXPECT_EQ(out, content);
}

TEST(PersistenceTest, OversizedPayloadLengthIsFatal)
{
    // The state ends with the only stored page's (lp, length, bytes)
    // record. Replacing its length by 2^32 with no body behind it must
    // fail on the slot-size check, before any payload is read.
    CellLifetimeModel lifetime;
    std::stringstream dev_state;
    {
        FlashDevice device(geom(), FlashTiming(), lifetime, 3, 0.0,
                           true);
        FlashMemoryController ctrl(device);
        const std::vector<std::uint8_t> content(2048, 0x5A);
        PageDescriptor desc{4, DensityMode::MLC};
        ctrl.writePage({0, 0, 0}, desc, content.data());
        device.saveState(dev_state);
    }
    const std::string full = dev_state.str();
    std::size_t len_at = 0;
    for (std::uint64_t len = 1; len + 8 < full.size(); ++len) {
        std::uint64_t v;
        std::memcpy(&v, full.data() + full.size() - len - 8, 8);
        if (v == len) {
            len_at = full.size() - len - 8;
            break;
        }
    }
    ASSERT_NE(len_at, 0u);
    std::string forged = full.substr(0, len_at);
    const std::uint64_t huge = 1ull << 32;
    forged.append(reinterpret_cast<const char*>(&huge), 8);
    std::stringstream in(forged);
    FlashDevice device(geom(), FlashTiming(), lifetime, 3, 0.0, true);
    EXPECT_DEATH(device.loadState(in), "payload out of range");
}

TEST(PersistenceTest, GeometryMismatchIsFatal)
{
    CellLifetimeModel lifetime;
    std::stringstream dev_state;
    {
        FlashDevice device(geom(), FlashTiming(), lifetime, 1);
        device.saveState(dev_state);
    }
    FlashGeometry other = geom();
    other.numBlocks = 6;
    FlashDevice device(other, FlashTiming(), lifetime, 1);
    EXPECT_DEATH(device.loadState(dev_state), "geometry mismatch");
}

/**
 * A saved device state with `len` bytes at `offset` replaced, loaded
 * into a fresh device. The first frame's record starts after the
 * 8-byte magic, the u32 block count, the u16 frames per block and the
 * u8 store_data flag: mode at 15, pending mode at 16, damage at 17.
 */
void
loadPatchedDevice(std::size_t offset, const void* bytes, std::size_t len)
{
    CellLifetimeModel lifetime;
    std::stringstream dev_state;
    {
        FlashDevice device(geom(), FlashTiming(), lifetime, 1);
        device.saveState(dev_state);
    }
    std::string patched = dev_state.str();
    std::memcpy(patched.data() + offset, bytes, len);
    std::stringstream in(patched);
    FlashDevice device(geom(), FlashTiming(), lifetime, 1);
    device.loadState(in);
}

TEST(PersistenceTest, DensityModeOutOfRangeIsFatal)
{
    const std::uint8_t two = 2, seven = 7;
    EXPECT_DEATH(loadPatchedDevice(15, &two, 1), "density mode");
    EXPECT_DEATH(loadPatchedDevice(15, &seven, 1), "density mode");
    EXPECT_DEATH(loadPatchedDevice(16, &seven, 1), "density mode");
}

TEST(PersistenceTest, DamageOutOfRangeIsFatal)
{
    const float negative = -1.0f;
    const float nan = std::numeric_limits<float>::quiet_NaN();
    EXPECT_DEATH(loadPatchedDevice(17, &negative, 4), "damage");
    EXPECT_DEATH(loadPatchedDevice(17, &nan, 4), "damage");
}

TEST(PersistenceTest, CacheKeepsWorkingAfterRestart)
{
    // The restored cache must keep allocating, GCing and evicting
    // correctly — cursors and free lists were part of the state.
    CellLifetimeModel lifetime;
    std::stringstream dev_state, cache_state;
    {
        FlashDevice device(geom(), FlashTiming(), lifetime, 12);
        FlashMemoryController ctrl(device);
        NullStore store;
        FlashCache cache(ctrl, store);
        Rng rng(2);
        for (int i = 0; i < 5000; ++i) {
            const Lba l = rng.uniformInt(150);
            if (rng.bernoulli(0.4))
                cache.write(l);
            else
                cache.read(l);
        }
        device.saveState(dev_state);
        cache.saveState(cache_state);
    }

    FlashDevice device(geom(), FlashTiming(), lifetime, 12);
    FlashMemoryController ctrl(device);
    NullStore store;
    FlashCache cache(ctrl, store);
    device.loadState(dev_state);
    cache.loadState(cache_state);

    Rng rng(3);
    for (int i = 0; i < 10000; ++i) {
        const Lba l = rng.uniformInt(400); // larger set: force churn
        if (rng.bernoulli(0.4))
            cache.write(l);
        else
            cache.read(l);
    }
    cache.checkInvariants();
    EXPECT_GT(cache.stats().gcRuns + cache.stats().evictions, 0u);
}


TEST(PersistenceTest, TruncatedStateIsFatal)
{
    CellLifetimeModel lifetime;
    std::stringstream dev_state;
    {
        FlashDevice device(geom(), FlashTiming(), lifetime, 1);
        device.saveState(dev_state);
    }
    const std::string full = dev_state.str();
    std::stringstream truncated(full.substr(0, full.size() / 2));
    FlashDevice device(geom(), FlashTiming(), lifetime, 1);
    EXPECT_DEATH(device.loadState(truncated), "truncated");
}

TEST(PersistenceTest, WrongMagicIsFatal)
{
    CellLifetimeModel lifetime;
    std::stringstream cache_junk("NOTMAGICxxxxxxxxxxxxxxxx");
    FlashDevice device(geom(), FlashTiming(), lifetime, 1);
    FlashMemoryController ctrl(device);
    class NS : public BackingStore
    {
      public:
        Seconds read(Lba) override { return 0; }
        Seconds write(Lba) override { return 0; }
    } store;
    FlashCache cache(ctrl, store);
    EXPECT_DEATH(cache.loadState(cache_junk), "magic");
}

TEST(PersistenceTest, SplitModeMismatchIsFatal)
{
    CellLifetimeModel lifetime;
    std::stringstream dev_state, cache_state;
    class NS : public BackingStore
    {
      public:
        Seconds read(Lba) override { return 0; }
        Seconds write(Lba) override { return 0; }
    } store;
    {
        FlashDevice device(geom(), FlashTiming(), lifetime, 1);
        FlashMemoryController ctrl(device);
        FlashCache cache(ctrl, store); // split (default)
        cache.saveState(cache_state);
    }
    FlashDevice device(geom(), FlashTiming(), lifetime, 1);
    FlashMemoryController ctrl(device);
    FlashCacheConfig cfg;
    cfg.splitRegions = false;
    FlashCache unified(ctrl, store, cfg);
    EXPECT_DEATH(unified.loadState(cache_state), "split-mode");
}

/** A cache state saved after a mixed workload, plus the byte offsets
 *  (in FlashCache::saveState's layout) of the fields the corruption
 *  tests patch. */
struct SavedCache
{
    std::string bytes;
    std::string device; ///< the device's FlashDevice::saveState bytes
    std::uint32_t numBlocks = 0;
    std::uint32_t framesPerBlock = 0;
    std::size_t fbstAt = 0;   ///< first FBST entry
    std::size_t freeAt = 0;   ///< region 0's free-list length prefix
    std::size_t lruAt = 0;    ///< region 0's LRU length prefix
    std::size_t cursorAt = 0; ///< region 0's first append cursor
    std::size_t validAt = 0;  ///< region 0's validCount
};

template <typename T>
T
peek(const std::string& s, std::size_t at)
{
    T v;
    std::memcpy(&v, s.data() + at, sizeof(v));
    return v;
}

template <typename T>
void
poke(std::string& s, std::size_t at, T v)
{
    std::memcpy(s.data() + at, &v, sizeof(v));
}

SavedCache
savedCacheAfterWorkload()
{
    CellLifetimeModel lifetime;
    FlashDevice device(geom(), FlashTiming(), lifetime, 12);
    FlashMemoryController ctrl(device);
    NullStore store;
    FlashCache cache(ctrl, store);
    Rng rng(2);
    for (int i = 0; i < 5000; ++i) {
        const Lba l = rng.uniformInt(150);
        if (rng.bernoulli(0.4))
            cache.write(l);
        else
            cache.read(l);
    }
    std::stringstream os, dev_os;
    cache.saveState(os);
    device.saveState(dev_os);

    SavedCache sc;
    sc.bytes = os.str();
    sc.device = dev_os.str();
    // magic(8) numBlocks(4) framesPerBlock(4) split(1), then one
    // 13-byte FPST entry per page id (2 per frame), then one 12-byte
    // FBST entry per block, then region 0: free list, LRU list.
    sc.numBlocks = peek<std::uint32_t>(sc.bytes, 8);
    sc.framesPerBlock = peek<std::uint32_t>(sc.bytes, 12);
    sc.fbstAt = 17 + 13ull * sc.numBlocks * sc.framesPerBlock * 2;
    sc.freeAt = sc.fbstAt + 12ull * sc.numBlocks;
    sc.lruAt = sc.freeAt + 8 +
        4 * peek<std::uint64_t>(sc.bytes, sc.freeAt);
    // Then two 7-byte cursors (block, frame, sub), ownedBlocks(4),
    // validCount(8).
    sc.cursorAt = sc.lruAt + 8 +
        4 * peek<std::uint64_t>(sc.bytes, sc.lruAt);
    sc.validAt = sc.cursorAt + 2 * 7 + 4;
    return sc;
}

void
loadCorrupted(const std::string& bytes)
{
    CellLifetimeModel lifetime;
    FlashDevice device(geom(), FlashTiming(), lifetime, 12);
    FlashMemoryController ctrl(device);
    NullStore store;
    FlashCache cache(ctrl, store);
    std::stringstream is(bytes);
    cache.loadState(is);
}

TEST(PersistenceTest, OutOfRangeLruBlockIsFatal)
{
    SavedCache sc = savedCacheAfterWorkload();
    ASSERT_GT(peek<std::uint64_t>(sc.bytes, sc.lruAt), 0u);
    poke<std::uint32_t>(sc.bytes, sc.lruAt + 8, sc.numBlocks);
    EXPECT_DEATH(loadCorrupted(sc.bytes),
                 "cache state file LRU block out of range");
}

TEST(PersistenceTest, BlockListedTwiceIsFatal)
{
    // Region 0's free list then LRU, each a u64 count and u32 block
    // ids. A block listed twice would be handed out twice: once an
    // LRU block in the free list, once a free block repeated.
    const SavedCache sc = savedCacheAfterWorkload();
    ASSERT_GE(peek<std::uint64_t>(sc.bytes, sc.freeAt), 2u);
    ASSERT_GT(peek<std::uint64_t>(sc.bytes, sc.lruAt), 0u);
    std::string lru_in_free = sc.bytes;
    poke(lru_in_free, sc.freeAt + 8,
         peek<std::uint32_t>(sc.bytes, sc.lruAt + 8));
    EXPECT_DEATH(loadCorrupted(lru_in_free),
                 "cache state file: block listed twice");
    std::string free_twice = sc.bytes;
    poke(free_twice, sc.freeAt + 12,
         peek<std::uint32_t>(sc.bytes, sc.freeAt + 8));
    EXPECT_DEATH(loadCorrupted(free_twice),
                 "cache state file: block listed twice");
}

TEST(PersistenceTest, BlockListedOutsideItsRegionIsFatal)
{
    // FBST entry: ... retired(1) region(1). Re-home region 0's MRU
    // block to region 1 while region 0's LRU still lists it.
    SavedCache sc = savedCacheAfterWorkload();
    ASSERT_GT(peek<std::uint64_t>(sc.bytes, sc.lruAt), 0u);
    const auto block = peek<std::uint32_t>(sc.bytes, sc.lruAt + 8);
    poke<std::int8_t>(sc.bytes, sc.fbstAt + 12 * block + 11, 1);
    EXPECT_DEATH(loadCorrupted(sc.bytes),
                 "cache state file: block listed outside its FBST region");
}

TEST(PersistenceTest, InvalidPageCountPastGcBucketsIsFatal)
{
    // FBST entry: totalEcc(4) slcFrames(2) validPages(2)
    // invalidPages(2) ...; the GC buckets cover 0..2*framesPerBlock.
    SavedCache sc = savedCacheAfterWorkload();
    poke<std::uint16_t>(sc.bytes, sc.fbstAt + 8,
                        static_cast<std::uint16_t>(
                            2 * sc.framesPerBlock + 1));
    EXPECT_DEATH(loadCorrupted(sc.bytes),
                 "cache state file invalid page count out of range");
}

TEST(PersistenceTest, TruncatedCacheTablesAreFatal)
{
    // Cut inside the fifth FPST entry, then inside the third FBST
    // entry.
    const SavedCache sc = savedCacheAfterWorkload();
    EXPECT_DEATH(loadCorrupted(sc.bytes.substr(0, 17 + 13 * 4 + 5)),
                 "truncated state file");
    EXPECT_DEATH(loadCorrupted(sc.bytes.substr(0, sc.fbstAt + 12 * 2 + 7)),
                 "truncated state file");
}

TEST(PersistenceTest, FpstFieldsOutOfRangeAreFatal)
{
    // FPST entry: lba(8) state(1) eccStrength(1) mode(1) ...; patch
    // the last entry, which ends the decoder's last chunk.
    const SavedCache sc = savedCacheAfterWorkload();
    const std::size_t last = sc.fbstAt - 13;
    std::string bad_state = sc.bytes;
    poke<std::uint8_t>(bad_state, last + 8, 3);
    EXPECT_DEATH(loadCorrupted(bad_state),
                 "cache state file page state out of range");
    std::string bad_mode = sc.bytes;
    poke<std::uint8_t>(bad_mode, last + 10, 2);
    EXPECT_DEATH(loadCorrupted(bad_mode),
                 "cache state file density mode out of range");
    // Past the hardware limit (12 by default) a page would read as
    // correctable beyond the code, or program with an unbuildable one.
    std::string bad_ecc = sc.bytes;
    poke<std::uint8_t>(bad_ecc, last + 9, 13);
    EXPECT_DEATH(loadCorrupted(bad_ecc),
                 "cache state file ECC strength out of range");
}

TEST(PersistenceTest, FbstRegionOutOfRangeIsFatal)
{
    // FBST entry: ... retired(1) region(1); split mode has regions 0
    // and 1.
    SavedCache sc = savedCacheAfterWorkload();
    poke<std::int8_t>(sc.bytes, sc.fbstAt + 12 * 5 + 11, 2);
    EXPECT_DEATH(loadCorrupted(sc.bytes),
                 "cache state file region out of range");
}

TEST(PersistenceTest, CursorFrameOutOfRangeIsFatal)
{
    // Cursor: block(4) frame(2) sub(1).
    SavedCache sc = savedCacheAfterWorkload();
    poke<std::uint16_t>(sc.bytes, sc.cursorAt + 4,
                        static_cast<std::uint16_t>(sc.framesPerBlock + 1));
    EXPECT_DEATH(loadCorrupted(sc.bytes),
                 "cache state file cursor slot out of range");
}

TEST(PersistenceTest, LastFrameNanDamageIsFatal)
{
    // Frame records are mode(1) pendingMode(1) damage(4) from offset
    // 15; patch the last frame's damage.
    const FlashGeometry g = geom();
    const float nan = std::numeric_limits<float>::quiet_NaN();
    const std::size_t frames =
        static_cast<std::size_t>(g.numBlocks) * g.framesPerBlock;
    EXPECT_DEATH(loadPatchedDevice(15 + 6 * (frames - 1) + 2, &nan, 4),
                 "damage");
}

TEST(PersistenceTest, HugeRegionValidCountIsFatal)
{
    // The region counts are not trusted for sizing anything: a count
    // near 2^63 must fail the closing invariant check, not hang or
    // exhaust memory.
    SavedCache sc = savedCacheAfterWorkload();
    poke<std::uint64_t>(sc.bytes, sc.validAt, 1ull << 63);
    EXPECT_DEATH(loadCorrupted(sc.bytes), "valid page count mismatch");
}

/** 64-bit FNV-1a over a byte string. */
std::uint64_t
fnv1a(const std::string& bytes)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const char c : bytes) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ull;
    }
    return h;
}

/** Load a device and cache snapshot into fresh objects (geometry g,
 *  device seed) and save them again: {device bytes, cache bytes}. */
std::pair<std::string, std::string>
reloadAndSave(const FlashGeometry& g, std::uint64_t seed,
              const std::string& dev_bytes, const std::string& cache_bytes)
{
    CellLifetimeModel lifetime;
    FlashDevice device(g, FlashTiming(), lifetime, seed);
    FlashMemoryController ctrl(device);
    NullStore store;
    FlashCache cache(ctrl, store);
    std::stringstream dev_in(dev_bytes), cache_in(cache_bytes);
    device.loadState(dev_in);
    cache.loadState(cache_in);
    std::stringstream dev_out, cache_out;
    device.saveState(dev_out);
    cache.saveState(cache_out);
    return {dev_out.str(), cache_out.str()};
}

TEST(PersistenceTest, SnapshotFormatIsPinned)
{
    // Hashes of the FCCHE002 and FCDEV002 bytes this fixed-seed
    // workload saves, recorded from the per-field encoder. Either
    // wire format may only change together with its magic.
    const SavedCache sc = savedCacheAfterWorkload();
    EXPECT_EQ(sc.bytes.size(), 2813u);
    EXPECT_EQ(sc.device.size(), 687u);
    EXPECT_EQ(fnv1a(sc.bytes), 0x8b96d0587f8d9c85ull);
    EXPECT_EQ(fnv1a(sc.device), 0x91301542e2dde09aull);

    const auto [dev_out, cache_out] =
        reloadAndSave(geom(), 12, sc.device, sc.bytes);
    EXPECT_EQ(dev_out, sc.device);
    EXPECT_EQ(cache_out, sc.bytes);
}

TEST(PersistenceTest, MultiChunkSnapshotIsPinnedAndRoundTrips)
{
    // At the default 1,024 x 64 geometry the FPST (131,072 entries,
    // 1.7 MB) and the frame table (65,536 records) each span many of
    // the record codec's 64 KiB chunks.
    const FlashGeometry g;
    CellLifetimeModel lifetime;
    FlashDevice device(g, FlashTiming(), lifetime, 21);
    FlashMemoryController ctrl(device);
    NullStore store;
    FlashCache cache(ctrl, store);
    Rng rng(4);
    for (int i = 0; i < 60000; ++i) {
        const Lba l = rng.uniformInt(40000);
        if (rng.bernoulli(0.5))
            cache.write(l);
        else
            cache.read(l);
    }
    ASSERT_GT(cache.validPages(), 10000u);
    std::stringstream dev_os, cache_os;
    device.saveState(dev_os);
    cache.saveState(cache_os);
    // Recorded from the per-field encoder, as above.
    EXPECT_EQ(fnv1a(cache_os.str()), 0x31ccd0fad9d16f59ull);
    EXPECT_EQ(fnv1a(dev_os.str()), 0x0ed59c7fe5caf62aull);

    const auto [dev_out, cache_out] =
        reloadAndSave(g, 21, dev_os.str(), cache_os.str());
    EXPECT_EQ(dev_out, dev_os.str());
    EXPECT_EQ(cache_out, cache_os.str());
}

} // namespace
} // namespace flashcache
