/**
 * @file
 * Transient (soft) error tests: injection statistics, ECC masking,
 * driver retry on transient overflows, and the "fail consistently"
 * guard that keeps soft errors from permanently reconfiguring pages.
 */

#include <gtest/gtest.h>

#include "core/flash_cache.hh"
#include "util/rng.hh"

namespace flashcache {
namespace {

FlashGeometry
smallGeom()
{
    FlashGeometry g;
    g.numBlocks = 8;
    g.framesPerBlock = 8;
    return g;
}

TEST(SoftErrorTest, RateZeroIsCleanOnFreshDevice)
{
    CellLifetimeModel m;
    FlashDevice dev(smallGeom(), FlashTiming(), m, 1);
    dev.programPage({0, 0, 0});
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(dev.readPage({0, 0, 0}).hardBitErrors, 0u);
}

TEST(SoftErrorTest, MeanMatchesConfiguredRate)
{
    CellLifetimeModel m;
    FlashDevice dev(smallGeom(), FlashTiming(), m, 2);
    const double rate = 1e-5; // per bit per read
    dev.setSoftErrorRate(rate);
    dev.programPage({0, 0, 0});

    double total = 0.0;
    const int reads = 4000;
    for (int i = 0; i < reads; ++i)
        total += dev.readPage({0, 0, 0}).hardBitErrors;
    // MLC doubles the exposure: expect 2 * rate * page_bits.
    const double expect = 2.0 * rate * smallGeom().pageBits();
    EXPECT_NEAR(total / reads, expect, 0.1 * expect + 0.02);
}

TEST(SoftErrorTest, SlcSeesHalfTheMlcRate)
{
    CellLifetimeModel m;
    FlashDevice dev(smallGeom(), FlashTiming(), m, 3);
    dev.setSoftErrorRate(2e-5);
    for (std::uint16_t f = 0; f < 8; ++f)
        dev.requestFrameMode(1, f, DensityMode::SLC);
    dev.eraseBlock(1);
    dev.programPage({0, 0, 0}); // MLC
    dev.programPage({1, 0, 0}); // SLC

    double mlc = 0.0, slc = 0.0;
    for (int i = 0; i < 4000; ++i) {
        mlc += dev.readPage({0, 0, 0}).hardBitErrors;
        slc += dev.readPage({1, 0, 0}).hardBitErrors;
    }
    EXPECT_NEAR(slc / mlc, 0.5, 0.15);
}

TEST(SoftErrorTest, EccMasksTransientsWithoutDataLoss)
{
    // Soft errors within the code strength must be invisible to the
    // cache: hits keep succeeding and nothing is lost or retired.
    CellLifetimeModel m;
    FlashDevice dev(smallGeom(), FlashTiming(), m, 4);
    dev.setSoftErrorRate(5e-5); // ~1.7 expected flips per MLC read
    FlashMemoryController ctrl(dev);
    FixedLatencyStore store;
    FlashCacheConfig cfg;
    cfg.initialEccStrength = 8;
    FlashCache cache(ctrl, store, cfg);

    Rng rng(5);
    for (int i = 0; i < 20000; ++i) {
        const Lba l = rng.uniformInt(64);
        if (rng.bernoulli(0.3))
            cache.write(l);
        else
            cache.read(l);
    }
    EXPECT_EQ(cache.stats().dataLossPages, 0u);
    EXPECT_EQ(cache.stats().retiredBlocks, 0u);
    // The controller did real correction work.
    EXPECT_GT(ctrl.stats().correctedReads, 1000u);
    cache.checkInvariants();
}

TEST(SoftErrorTest, TransientsDoNotPermanentlyReconfigure)
{
    // With a soft-error rate that regularly reaches the strength,
    // the "fail consistently" confirmation against the medium keeps
    // ECC strengths where they are (fresh cells, no wear).
    WearParams no_wear;
    no_wear.nominalCycles = 1e9; // fresh cells throughout
    CellLifetimeModel m(no_wear);
    FlashDevice dev(smallGeom(), FlashTiming(), m, 6);
    dev.setSoftErrorRate(4e-5);
    FlashMemoryController ctrl(dev);
    FixedLatencyStore store;
    FlashCacheConfig cfg;
    cfg.initialEccStrength = 2; // spikes past 2 bits are common
    cfg.hotPageMigration = false;
    FlashCache cache(ctrl, store, cfg);

    Rng rng(7);
    for (int i = 0; i < 20000; ++i) {
        const Lba l = rng.uniformInt(64);
        if (rng.bernoulli(0.2))
            cache.write(l);
        else
            cache.read(l);
    }
    EXPECT_EQ(cache.stats().eccReconfigs, 0u);
    EXPECT_EQ(cache.stats().densityReconfigs, 0u);
}

TEST(SoftErrorTest, RetryRecoversTransientOverflows)
{
    // Spikes occasionally exceed even a strong code; the driver's
    // re-read almost always recovers, so data loss stays at zero.
    WearParams no_wear;
    no_wear.nominalCycles = 1e9;
    CellLifetimeModel m(no_wear);
    FlashDevice dev(smallGeom(), FlashTiming(), m, 8);
    dev.setSoftErrorRate(1.2e-4); // ~4 expected flips per MLC read
    FlashMemoryController ctrl(dev);
    FixedLatencyStore store;
    FlashCacheConfig cfg;
    cfg.initialEccStrength = 10;
    cfg.hotPageMigration = false;
    FlashCache cache(ctrl, store, cfg);

    Rng rng(9);
    for (int i = 0; i < 30000; ++i) {
        const Lba l = rng.uniformInt(64);
        if (rng.bernoulli(0.2))
            cache.write(l);
        else
            cache.read(l);
    }
    // Overflows happened at the controller...
    EXPECT_GT(ctrl.stats().uncorrectableReads, 0u);
    // ...but the retry path kept the cache's losses at zero.
    EXPECT_EQ(cache.stats().dataLossPages, 0u);
    cache.checkInvariants();
}

} // namespace
} // namespace flashcache
