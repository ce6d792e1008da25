/**
 * @file
 * Warm-restart persistence tests (section 3: the management tables
 * are "read from the hard disk drive and stored in DRAM at
 * run-time"): a saved snapshot (device section, then cache tables)
 * restored into fresh objects must behave identically — same hits,
 * same wear, same contents.
 */

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>
#include <tuple>
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
    std::stringstream state;
    std::vector<Lba> hot;
    for (Lba l = 0; l < 50; ++l)
        hot.push_back(l * 3);

    std::vector<Lba> cached_before;
    std::vector<FbstEntry> fbst_before;
    std::uint64_t valid_before = 0, invalid_before = 0;
    double occupancy_before[2] = {};
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
        for (std::uint32_t b = 0; b < geom().numBlocks; ++b)
            fbst_before.push_back(cache.fbstEntry(b));
        valid_before = cache.validPages();
        invalid_before = cache.invalidPages();
        for (int r = 0; r < 2; ++r)
            occupancy_before[r] = cache.regionOccupancy(r);
        cache.saveState(state);
    }
    ASSERT_GT(cached_before.size(), 10u);

    // "Reboot": fresh objects, state loaded back.
    FlashDevice device(geom(), FlashTiming(), lifetime, 99);
    FlashMemoryController ctrl(device);
    NullStore store;
    FlashCache cache(ctrl, store);
    cache.loadState(state);
    cache.checkInvariants();

    // The snapshot stores none of the FBST's counts, modes or regions
    // and none of the region counters; the derived ones must equal
    // what the saved cache maintained.
    for (std::uint32_t b = 0; b < geom().numBlocks; ++b) {
        const FbstEntry& before = fbst_before[b];
        const FbstEntry& after = cache.fbstEntry(b);
        EXPECT_EQ(after.totalEcc, before.totalEcc) << b;
        EXPECT_EQ(after.slcFrames, before.slcFrames) << b;
        EXPECT_EQ(after.validPages, before.validPages) << b;
        EXPECT_EQ(after.invalidPages, before.invalidPages) << b;
        EXPECT_EQ(after.retired, before.retired) << b;
        EXPECT_EQ(after.region, before.region) << b;
    }
    EXPECT_EQ(cache.validPages(), valid_before);
    EXPECT_EQ(cache.invalidPages(), invalid_before);
    for (int r = 0; r < 2; ++r)
        EXPECT_EQ(cache.regionOccupancy(r), occupancy_before[r]) << r;

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
    std::stringstream state;
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
        cache.saveState(state);
    }

    FlashDevice device(geom(), FlashTiming(), lifetime, 12);
    FlashMemoryController ctrl(device);
    NullStore store;
    FlashCache cache(ctrl, store);
    cache.loadState(state);

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
    std::stringstream state;
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
        cache.saveState(state);
    }
    FlashDevice device(geom(), FlashTiming(), lifetime, 1);
    FlashMemoryController ctrl(device);
    FlashCacheConfig cfg;
    cfg.splitRegions = false;
    FlashCache unified(ctrl, store, cfg);
    EXPECT_DEATH(unified.loadState(state), "split-mode");
}

/** A snapshot saved after a mixed workload, cut into its device
 *  section and its cache tables, and the byte offsets (in the tables'
 *  layout) of the fields the corruption tests patch. */
struct SavedCache
{
    std::string bytes;  ///< the cache tables (FCCHE003)
    std::string device; ///< the device section (FCDEV002) before them
    std::uint32_t numBlocks = 0;
    std::uint32_t framesPerBlock = 0;
    std::size_t fbstAt = 0;   ///< first FBST entry
    std::size_t freeAt = 0;   ///< region 0's free-list length prefix
    std::size_t lruAt = 0;    ///< region 0's LRU length prefix
    std::size_t cursorAt = 0; ///< region 0's first append cursor
};

/** Snapshot record sizes: an FPST entry is lba(8) state(1)
 *  eccStrength(1) accessCount(1) dirty(1); an FBST entry is
 *  totalEcc(4) retired(1). */
constexpr std::size_t kFpstBytes = 12;
constexpr std::size_t kFbstBytes = 5;

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

/** Run `ops` seeded reads and writes (40%) over 150 LBAs. */
void
runMixedWorkload(FlashCache& cache, std::uint64_t seed, int ops)
{
    Rng rng(seed);
    for (int i = 0; i < ops; ++i) {
        const Lba l = rng.uniformInt(150);
        if (rng.bernoulli(0.4))
            cache.write(l);
        else
            cache.read(l);
    }
}

/** A snapshot cut at its tables' magic: {device section, tables}. */
std::pair<std::string, std::string>
sections(const std::string& snapshot)
{
    const std::size_t at = snapshot.find("FCCHE003");
    return {snapshot.substr(0, at), snapshot.substr(at)};
}

/** The snapshot `cache` saves after `ops` mixed operations. */
std::string
snapshotAfterWorkload(FlashCache& cache, std::uint64_t seed, int ops)
{
    runMixedWorkload(cache, seed, ops);
    std::stringstream os;
    cache.saveState(os);
    return os.str();
}

SavedCache
savedCacheAfterWorkload()
{
    CellLifetimeModel lifetime;
    FlashDevice device(geom(), FlashTiming(), lifetime, 12);
    FlashMemoryController ctrl(device);
    NullStore store;
    FlashCache cache(ctrl, store);

    SavedCache sc;
    std::tie(sc.device, sc.bytes) =
        sections(snapshotAfterWorkload(cache, 2, 5000));
    // magic(8) numBlocks(4) framesPerBlock(4) split(1), then one FPST
    // entry per page id (2 per frame), then one FBST entry per block,
    // then region 0: free list, LRU list, two 7-byte cursors (block,
    // frame, sub).
    sc.numBlocks = peek<std::uint32_t>(sc.bytes, 8);
    sc.framesPerBlock = peek<std::uint32_t>(sc.bytes, 12);
    sc.fbstAt = 17 + kFpstBytes * sc.numBlocks * sc.framesPerBlock * 2;
    sc.freeAt = sc.fbstAt + kFbstBytes * sc.numBlocks;
    sc.lruAt = sc.freeAt + 8 +
        4 * peek<std::uint64_t>(sc.bytes, sc.freeAt);
    sc.cursorAt = sc.lruAt + 8 +
        4 * peek<std::uint64_t>(sc.bytes, sc.lruAt);
    return sc;
}

/** A fresh stack that loads a (possibly corrupted) snapshot, as a
 *  warm restart does. */
struct LoadedStack
{
    explicit LoadedStack(const std::string& snapshot)
    {
        std::stringstream is(snapshot);
        cache.loadState(is);
    }

    CellLifetimeModel lifetime;
    FlashDevice device{geom(), FlashTiming(), lifetime, 12};
    FlashMemoryController ctrl{device};
    NullStore store;
    FlashCache cache{ctrl, store};
};

/** Load the snapshot of `device_bytes` followed by `bytes`. */
void
loadCorrupted(const std::string& bytes, const std::string& device_bytes)
{
    LoadedStack s(device_bytes + bytes);
}

TEST(PersistenceTest, OutOfRangeLruBlockIsFatal)
{
    SavedCache sc = savedCacheAfterWorkload();
    ASSERT_GT(peek<std::uint64_t>(sc.bytes, sc.lruAt), 0u);
    poke<std::uint32_t>(sc.bytes, sc.lruAt + 8, sc.numBlocks);
    EXPECT_DEATH(loadCorrupted(sc.bytes, sc.device),
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
    EXPECT_DEATH(loadCorrupted(lru_in_free, sc.device),
                 "cache state file: block listed twice");
    std::string free_twice = sc.bytes;
    poke(free_twice, sc.freeAt + 12,
         peek<std::uint32_t>(sc.bytes, sc.freeAt + 8));
    EXPECT_DEATH(loadCorrupted(free_twice, sc.device),
                 "cache state file: block listed twice");
}

TEST(PersistenceTest, TruncatedCacheTablesAreFatal)
{
    // Cut inside the fifth FPST entry, then inside the third FBST
    // entry.
    const SavedCache sc = savedCacheAfterWorkload();
    EXPECT_DEATH(loadCorrupted(sc.bytes.substr(0, 17 + kFpstBytes * 4 + 5),
                               sc.device),
                 "truncated state file");
    EXPECT_DEATH(loadCorrupted(sc.bytes.substr(0, sc.fbstAt +
                                                      kFbstBytes * 2 + 3),
                               sc.device),
                 "truncated state file");
}

TEST(PersistenceTest, FpstFieldsOutOfRangeAreFatal)
{
    // FPST entry: lba(8) state(1) eccStrength(1) ...; patch the last
    // entry, which ends the decoder's last chunk.
    const SavedCache sc = savedCacheAfterWorkload();
    const std::size_t last = sc.fbstAt - kFpstBytes;
    std::string bad_state = sc.bytes;
    poke<std::uint8_t>(bad_state, last + 8, 3);
    EXPECT_DEATH(loadCorrupted(bad_state, sc.device),
                 "cache state file page state out of range");
    // Past the hardware limit (12 by default) a page would read as
    // correctable beyond the code, or program with an unbuildable one.
    std::string bad_ecc = sc.bytes;
    poke<std::uint8_t>(bad_ecc, last + 9, 13);
    EXPECT_DEATH(loadCorrupted(bad_ecc, sc.device),
                 "cache state file ECC strength out of range");
}

TEST(PersistenceTest, CursorFrameOutOfRangeIsFatal)
{
    // Cursor: block(4) frame(2) sub(1).
    SavedCache sc = savedCacheAfterWorkload();
    poke<std::uint16_t>(sc.bytes, sc.cursorAt + 4,
                        static_cast<std::uint16_t>(sc.framesPerBlock + 1));
    EXPECT_DEATH(loadCorrupted(sc.bytes, sc.device),
                 "cache state file cursor slot out of range");
}

TEST(PersistenceTest, SplicedSnapshotIsFatal)
{
    // The device section of one save followed by the tables of
    // another, in either order: the device has programmed pages the
    // tables call free, or the reverse.
    CellLifetimeModel lifetime;
    FlashDevice device(geom(), FlashTiming(), lifetime, 12);
    FlashMemoryController ctrl(device);
    NullStore store;
    FlashCache cache(ctrl, store);
    const auto [dev_a, tables_a] =
        sections(snapshotAfterWorkload(cache, 2, 5000));
    const auto [dev_b, tables_b] =
        sections(snapshotAfterWorkload(cache, 3, 200));
    EXPECT_DEATH(loadCorrupted(tables_a, dev_b),
                 "page states disagree with the device");
    EXPECT_DEATH(loadCorrupted(tables_b, dev_a),
                 "page states disagree with the device");
}

/** Page ids of the valid FPST entries in a saved cache state. */
std::vector<std::size_t>
validPageIds(const SavedCache& sc)
{
    std::vector<std::size_t> ids;
    for (std::size_t id = 0; 17 + kFpstBytes * id < sc.fbstAt; ++id) {
        if (peek<std::uint8_t>(sc.bytes, 17 + kFpstBytes * id + 8) ==
            static_cast<std::uint8_t>(PageState::Valid)) {
            ids.push_back(id);
        }
    }
    return ids;
}

TEST(PersistenceTest, LbaMappedTwiceIsFatal)
{
    // Give the second valid page the first one's LBA.
    SavedCache sc = savedCacheAfterWorkload();
    const auto ids = validPageIds(sc);
    ASSERT_GE(ids.size(), 2u);
    poke(sc.bytes, 17 + kFpstBytes * ids[1],
         peek<std::uint64_t>(sc.bytes, 17 + kFpstBytes * ids[0]));
    EXPECT_DEATH(loadCorrupted(sc.bytes, sc.device),
                 "cache state: LBA mapped twice");
}

TEST(PersistenceTest, RetiredBlockStillListedIsFatal)
{
    // Mark region 0's MRU block, which holds valid pages, retired
    // while its LRU still lists it.
    SavedCache sc = savedCacheAfterWorkload();
    ASSERT_GT(peek<std::uint64_t>(sc.bytes, sc.lruAt), 0u);
    const auto block = peek<std::uint32_t>(sc.bytes, sc.lruAt + 8);
    const std::size_t pages_per_block = 2ull * sc.framesPerBlock;
    std::size_t valid = 0;
    for (const std::size_t id : validPageIds(sc))
        valid += id / pages_per_block == block;
    ASSERT_GT(valid, 0u);
    poke<std::uint8_t>(sc.bytes, sc.fbstAt + kFbstBytes * block + 4, 1);
    EXPECT_DEATH(loadCorrupted(sc.bytes, sc.device),
                 "cache state file: retired block listed");
}

TEST(PersistenceTest, RetiredBlockHoldingAPageIsFatal)
{
    // Drop region 0's last free block from its free list, mark it
    // retired and give its first page an Invalid entry. Every erase,
    // failed or not, frees all of a block's pages.
    SavedCache sc = savedCacheAfterWorkload();
    const auto nfree = peek<std::uint64_t>(sc.bytes, sc.freeAt);
    ASSERT_GT(nfree, 0u);
    const std::size_t last = sc.freeAt + 8 + 4 * (nfree - 1);
    const auto block = peek<std::uint32_t>(sc.bytes, last);
    sc.bytes.erase(last, 4);
    poke<std::uint64_t>(sc.bytes, sc.freeAt, nfree - 1);
    poke<std::uint8_t>(sc.bytes, sc.fbstAt + kFbstBytes * block + 4, 1);
    const std::size_t first_page = 2ull * sc.framesPerBlock * block;
    poke(sc.bytes, 17 + kFpstBytes * first_page + 8,
         static_cast<std::uint8_t>(PageState::Invalid));
    EXPECT_DEATH(loadCorrupted(sc.bytes, sc.device),
                 "cache state: retired block holds a page");
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

/** Load a snapshot into fresh objects (geometry g, device seed) and
 *  save it again. */
std::string
reloadAndSave(const FlashGeometry& g, std::uint64_t seed,
              const std::string& snapshot)
{
    CellLifetimeModel lifetime;
    FlashDevice device(g, FlashTiming(), lifetime, seed);
    FlashMemoryController ctrl(device);
    NullStore store;
    FlashCache cache(ctrl, store);
    std::stringstream in(snapshot), out;
    cache.loadState(in);
    cache.saveState(out);
    return out.str();
}

TEST(PersistenceTest, SnapshotFormatIsPinned)
{
    // Hashes of the FCCHE003 and FCDEV002 sections this fixed-seed
    // workload saves, recorded from the per-field encoder. Either
    // wire format may only change together with its magic.
    const SavedCache sc = savedCacheAfterWorkload();
    EXPECT_EQ(sc.bytes.size(), 2497u);
    EXPECT_EQ(sc.device.size(), 687u);
    EXPECT_EQ(fnv1a(sc.bytes), 0xbeddd81f6137647eull);
    EXPECT_EQ(fnv1a(sc.device), 0x91301542e2dde09aull);

    const std::string snapshot = sc.device + sc.bytes;
    EXPECT_EQ(reloadAndSave(geom(), 12, snapshot), snapshot);
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
    std::stringstream os;
    cache.saveState(os);
    const auto [dev, tables] = sections(os.str());
    // Recorded from the per-field encoder, as above.
    EXPECT_EQ(fnv1a(tables), 0x6fa0d64fa619e925ull);
    EXPECT_EQ(fnv1a(dev), 0x0ed59c7fe5caf62aull);

    EXPECT_EQ(reloadAndSave(g, 21, os.str()), os.str());
}

/** Exit status and stderr of one child process. */
struct ChildRun
{
    int status = 0;
    std::string err;
};

/** Run `body` in a forked child with stderr captured; the child exits
 *  0 when `body` returns. */
template <typename Body>
ChildRun
runInChild(Body&& body)
{
    int fds[2];
    if (pipe(fds) != 0)
        ADD_FAILURE() << "pipe failed";
    std::fflush(nullptr);
    const pid_t pid = fork();
    if (pid == 0) {
        close(fds[0]);
        dup2(fds[1], 2);
        close(fds[1]);
        body();
        std::fflush(nullptr);
        _exit(0);
    }
    close(fds[1]);
    ChildRun run;
    char buf[4096];
    for (ssize_t n; (n = read(fds[0], buf, sizeof(buf))) > 0;)
        run.err.append(buf, static_cast<std::size_t>(n));
    close(fds[0]);
    waitpid(pid, &run.status, 0);
    return run;
}

/** Load a (mutated) snapshot, check the result and serve mixed
 *  traffic from it. */
void
loadAndServe(const std::string& snapshot)
{
    LoadedStack s(snapshot);
    s.cache.checkInvariants();
    Rng rng(7);
    for (int i = 0; i < 200; ++i) {
        const Lba l = rng.uniformInt(300);
        if (rng.bernoulli(0.4))
            s.cache.write(l);
        else
            s.cache.read(l);
    }
    s.cache.checkInvariants();
}

TEST(LoaderMutationTest, SeededMutationsLoadOrFailCleanly)
{
    // Seeded single mutations of the pinned snapshot: a bit flip, a
    // byte set to 0x00, 0xFF or a random value, or a truncation,
    // anywhere in either section. Each case loads and serves in a
    // child process, which must exit 0, or exit 1 on a fatal() line;
    // a panic, any other signal or a sanitizer report is a loader
    // hole.
    const SavedCache sc = savedCacheAfterWorkload();
    const std::string snapshot = sc.device + sc.bytes;
    Rng rng(33);
    constexpr int kCases = 3000;
    int fatal_exits = 0;
    for (int i = 0; i < kCases; ++i) {
        std::string target = snapshot;
        const std::size_t at = rng.uniformInt(target.size());
        const auto kind = rng.uniformInt(5);
        switch (kind) {
          case 0:
            target[at] = static_cast<char>(
                target[at] ^ (1 << rng.uniformInt(8)));
            break;
          case 1:
            target[at] = '\x00';
            break;
          case 2:
            target[at] = '\xff';
            break;
          case 3:
            target[at] = static_cast<char>(rng.uniformInt(256));
            break;
          default:
            target.resize(at);
            break;
        }
        const ChildRun run = runInChild([&] { loadAndServe(target); });
        const bool sanitizer =
            run.err.find("Sanitizer") != std::string::npos ||
            run.err.find("runtime error") != std::string::npos;
        const bool exited = WIFEXITED(run.status);
        const int code = exited ? WEXITSTATUS(run.status) : -1;
        const bool clean = !sanitizer && exited &&
            (code == 0 ||
             (code == 1 && run.err.find("fatal: ") != std::string::npos));
        fatal_exits += code == 1;
        EXPECT_TRUE(clean)
            << "case " << i << ": "
            << (at < sc.device.size() ? "device" : "tables")
            << " byte " << at << " mutation " << kind << " -> "
            << (exited ? "exit " + std::to_string(code)
                       : "signal " + std::to_string(WTERMSIG(run.status)))
            << "\n" << run.err;
    }
    // Most mutations must be caught, not just survived.
    RecordProperty("fatal_exits", fatal_exits);
    EXPECT_GT(fatal_exits, kCases / 4);
}

} // namespace
} // namespace flashcache
