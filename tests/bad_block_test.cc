/**
 * @file
 * Factory bad-block tests: real NAND ships with a few percent of
 * unusable blocks; the device marks them at construction and the
 * cache must format around them.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "core/flash_cache.hh"
#include "util/rng.hh"

namespace flashcache {
namespace {

FlashGeometry
geomWithBad(double rate, std::uint32_t blocks = 32)
{
    FlashGeometry g;
    g.numBlocks = blocks;
    g.framesPerBlock = 8;
    g.factoryBadBlockRate = rate;
    return g;
}

TEST(BadBlockTest, MarkedDeterministicallyPerSeed)
{
    CellLifetimeModel m;
    FlashDevice a(geomWithBad(0.1), FlashTiming(), m, 5);
    FlashDevice b(geomWithBad(0.1), FlashTiming(), m, 5);
    FlashDevice c(geomWithBad(0.1), FlashTiming(), m, 6);
    int bad_a = 0, bad_c = 0, same = 0;
    for (std::uint32_t blk = 0; blk < 32; ++blk) {
        EXPECT_EQ(a.isFactoryBad(blk), b.isFactoryBad(blk));
        bad_a += a.isFactoryBad(blk);
        bad_c += c.isFactoryBad(blk);
        same += a.isFactoryBad(blk) == c.isFactoryBad(blk);
    }
    EXPECT_GT(bad_a, 0);
    EXPECT_LT(bad_a, 16);
    EXPECT_LT(same, 32); // different seed, different pattern
}

TEST(BadBlockTest, ZeroRateMarksNothing)
{
    CellLifetimeModel m;
    FlashDevice dev(geomWithBad(0.0), FlashTiming(), m, 5);
    for (std::uint32_t b = 0; b < 32; ++b)
        EXPECT_FALSE(dev.isFactoryBad(b));
}

TEST(BadBlockTest, AccessToBadBlockPanics)
{
    CellLifetimeModel m;
    FlashDevice dev(geomWithBad(0.2), FlashTiming(), m, 5);
    std::uint32_t bad = ~0u;
    for (std::uint32_t b = 0; b < 32; ++b) {
        if (dev.isFactoryBad(b)) {
            bad = b;
            break;
        }
    }
    ASSERT_NE(bad, ~0u);
    EXPECT_DEATH(dev.programPage({bad, 0, 0}), "factory bad");
    EXPECT_DEATH(dev.eraseBlock(bad), "factory bad");
}

TEST(BadBlockTest, CacheFormatsAroundBadBlocks)
{
    CellLifetimeModel m;
    FlashDevice dev(geomWithBad(0.1), FlashTiming(), m, 5);
    FlashMemoryController ctrl(dev);
    FixedLatencyStore store;
    FlashCache cache(ctrl, store);

    // Retired at format time; capacity excludes them.
    EXPECT_GT(cache.stats().retiredBlocks, 0u);
    std::uint32_t bad = 0;
    for (std::uint32_t b = 0; b < 32; ++b)
        bad += dev.isFactoryBad(b);
    EXPECT_EQ(cache.stats().retiredBlocks, bad);
    EXPECT_EQ(cache.capacityPages(), (32ull - bad) * 8 * 2);

    // The cache never touches them while operating.
    Rng rng(8);
    for (int i = 0; i < 20000; ++i) {
        const Lba l = rng.uniformInt(500);
        if (rng.bernoulli(0.4))
            cache.write(l);
        else
            cache.read(l);
    }
    cache.checkInvariants();
    for (std::uint32_t b = 0; b < 32; ++b) {
        if (dev.isFactoryBad(b)) {
            EXPECT_EQ(dev.blockEraseCount(b), 0u) << b;
        }
    }
}

TEST(BadBlockTest, TooManyBadBlocksIsFatal)
{
    CellLifetimeModel m;
    FlashDevice dev(geomWithBad(0.97, 16), FlashTiming(), m, 31);
    FlashMemoryController ctrl(dev);
    FixedLatencyStore store;
    EXPECT_DEATH({ FlashCache cache(ctrl, store); },
                 "too many factory bad blocks");
}

} // namespace
} // namespace flashcache
