/**
 * @file
 * Configuration-matrix property sweep: every combination of the four
 * policy switches (split regions, wear-leveling, adaptive
 * reconfiguration, hot-page migration) must run a mixed workload
 * without violating any table invariant, losing clean data, or
 * breaking basic accounting identities — including under accelerated
 * wear and soft errors.
 */

#include <gtest/gtest.h>

#include <tuple>

#include "core/flash_cache.hh"
#include "util/rng.hh"

namespace flashcache {
namespace {

using Combo = std::tuple<bool, bool, bool, bool>;

class ConfigMatrixTest : public ::testing::TestWithParam<Combo>
{
};

TEST_P(ConfigMatrixTest, InvariantsHoldUnderMixedWorkload)
{
    const auto [split, wear_level, adaptive, hot] = GetParam();

    WearParams wp;
    wp.nominalCycles = 400; // mild aging within the run
    wp.sigmaDecades = 1.0;
    CellLifetimeModel lifetime(wp);

    FlashGeometry geom;
    geom.numBlocks = 12;
    geom.framesPerBlock = 8;
    FlashDevice device(geom, FlashTiming(), lifetime, 55);
    device.setSoftErrorRate(1e-6);
    FlashMemoryController ctrl(device);
    FixedLatencyStore store;

    FlashCacheConfig cfg;
    cfg.splitRegions = split;
    cfg.wearLeveling = wear_level;
    cfg.adaptiveReconfig = adaptive;
    cfg.hotPageMigration = hot;
    cfg.accessSaturation = 24;
    cfg.wearThreshold = 24.0;
    FlashCache cache(ctrl, store, cfg);

    Rng rng(0xC0DE + (split ? 1 : 0) + (wear_level ? 2 : 0) +
            (adaptive ? 4 : 0) + (hot ? 8 : 0));
    for (int i = 0; i < 25000 && !cache.failed(); ++i) {
        const Lba l = rng.uniformInt(200);
        if (rng.bernoulli(0.35))
            cache.write(l);
        else
            cache.read(l);
        if (i % 5000 == 4999)
            cache.checkInvariants();
    }
    cache.flushAll();
    cache.checkInvariants();

    const FlashCacheStats& st = cache.stats();

    // Accounting identities.
    EXPECT_LE(cache.validPages() + cache.invalidPages(),
              cache.capacityPages());
    // The per-cause accounts hold flash time (array + ECC) only, so
    // together they fit inside the device's and controller's busy
    // time; the disk time of eviction and flush write-backs is the
    // disk's.
    EXPECT_GT(st.evictionFlushes, 0u);
    EXPECT_LE(st.gcTime + st.evictionTime + st.reconfigTime,
              device.stats().busyTime + ctrl.stats().eccTime);
    EXPECT_LE(cache.gcOverheadFraction(), 1.0);
    EXPECT_LE(st.fgst.reads.missRate(), 1.0);
    EXPECT_LE(st.fgst.recentMissRate(), 1.0);
    EXPECT_GE(st.fgst.recentMissRate(), 0.0);

    // Feature switches gate their mechanisms.
    if (!wear_level) {
        EXPECT_EQ(st.wearMigrations, 0u);
    }
    if (!hot) {
        EXPECT_EQ(st.hotMigrations, 0u);
    }
    if (!adaptive) {
        EXPECT_EQ(st.policyEccChoices, 0u);
        EXPECT_EQ(st.policyDensityChoices, 0u);
    }

    // The cache still works after all that.
    if (!cache.failed()) {
        cache.write(9999);
        EXPECT_TRUE(cache.read(9999).hit);
    }
}

INSTANTIATE_TEST_SUITE_P(AllSixteen, ConfigMatrixTest,
                         ::testing::Combine(::testing::Bool(),
                                            ::testing::Bool(),
                                            ::testing::Bool(),
                                            ::testing::Bool()));

} // namespace
} // namespace flashcache
