/**
 * @file
 * Programmable flash memory controller tests: reads and programs
 * with and without payloads, descriptor-driven ECC strength, and the
 * section 5.2 reconfiguration policy heuristics.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "controller/memory_controller.hh"
#include "controller/reconfig_policy.hh"

namespace flashcache {
namespace {

FlashGeometry
tinyGeom()
{
    FlashGeometry g;
    g.numBlocks = 2;
    g.framesPerBlock = 2;
    return g;
}

/** Device aged until pages show a target number of hard errors. */
class AgedControllerTest : public ::testing::Test
{
  protected:
    AgedControllerTest()
        : model_(fastWear()),
          dev_(tinyGeom(), FlashTiming(), model_, 11),
          ctrl_(dev_)
    {
    }

    static WearParams
    fastWear()
    {
        WearParams p;
        p.nominalCycles = 100;
        p.sigmaDecades = 0.8;
        return p;
    }

    /** Erase block 0 until its frame-0 MLC page shows >= n errors. */
    void
    ageUntilErrors(unsigned n)
    {
        for (int i = 0; i < 200000; ++i) {
            dev_.eraseBlock(0);
            dev_.programPage({0, 0, 0});
            const unsigned e = dev_.hardErrors({0, 0, 0});
            if (e >= n)
                return;
            dev_.eraseBlock(0);
        }
        FAIL() << "device refused to age";
    }

    CellLifetimeModel model_;
    FlashDevice dev_;
    FlashMemoryController ctrl_;
};

TEST(ControllerTest, CleanReadOnFreshDevice)
{
    CellLifetimeModel m;
    FlashDevice dev(tinyGeom(), FlashTiming(), m, 3);
    FlashMemoryController ctrl(dev);
    PageDescriptor desc{4, DensityMode::MLC};
    ctrl.writePage({0, 0, 0}, desc);
    const auto r = ctrl.readPage({0, 0, 0}, desc);
    EXPECT_EQ(r.status, ReadStatus::Clean);
    EXPECT_EQ(r.correctedBits, 0u);
    // Latency = flash array read + BCH decode + CRC.
    EXPECT_GT(r.latency, FlashTiming().mlcReadLatency);
}

TEST(ControllerTest, LatencyGrowsWithDescriptorStrength)
{
    CellLifetimeModel m;
    FlashDevice dev(tinyGeom(), FlashTiming(), m, 3);
    FlashMemoryController ctrl(dev);
    PageDescriptor weak{1, DensityMode::MLC};
    PageDescriptor strong{12, DensityMode::MLC};
    ctrl.writePage({0, 0, 0}, weak);
    ctrl.writePage({0, 0, 1}, strong);
    const auto r1 = ctrl.readPage({0, 0, 0}, weak);
    const auto r2 = ctrl.readPage({0, 0, 1}, strong);
    EXPECT_GT(r2.latency, r1.latency);
    EXPECT_NEAR(r2.latency - r1.latency,
                ctrl.decodeLatency(12) - ctrl.decodeLatency(1), 1e-12);
}

TEST_F(AgedControllerTest, CorrectedWhenErrorsWithinStrength)
{
    ageUntilErrors(2);
    const unsigned raw = dev_.hardErrors({0, 0, 0});
    PageDescriptor desc{static_cast<std::uint8_t>(raw + 2),
                        DensityMode::MLC};
    const auto r = ctrl_.readPage({0, 0, 0}, desc);
    EXPECT_EQ(r.status, ReadStatus::Corrected);
    EXPECT_EQ(r.correctedBits, raw);
    EXPECT_EQ(ctrl_.stats().correctedReads, 1u);
}

TEST_F(AgedControllerTest, UncorrectableWhenErrorsExceedStrength)
{
    ageUntilErrors(3);
    PageDescriptor desc{1, DensityMode::MLC};
    const auto r = ctrl_.readPage({0, 0, 0}, desc);
    EXPECT_EQ(r.status, ReadStatus::Uncorrectable);
    EXPECT_EQ(ctrl_.stats().uncorrectableReads, 1u);
}

TEST(ControllerRealPathTest, RoundTripNoErrors)
{
    CellLifetimeModel m;
    FlashDevice dev(tinyGeom(), FlashTiming(), m, 5, 0.0, true);
    FlashMemoryController ctrl(dev);
    PageDescriptor desc{4, DensityMode::MLC};

    std::vector<std::uint8_t> data(2048);
    for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<std::uint8_t>(i * 7);
    ctrl.writePage({0, 0, 0}, desc, data.data());

    std::vector<std::uint8_t> out(2048, 0);
    const auto r = ctrl.readPage({0, 0, 0}, desc, out.data());
    EXPECT_EQ(r.status, ReadStatus::Clean);
    EXPECT_EQ(out, data);
}

TEST(ControllerRealPathTest, CorrectsInjectedErrorsUpToStrength)
{
    CellLifetimeModel m;
    FlashDevice dev(tinyGeom(), FlashTiming(), m, 5, 0.0, true);
    FlashMemoryController ctrl(dev);

    for (unsigned t : {1u, 4u, 8u, 12u}) {
        PageDescriptor desc{static_cast<std::uint8_t>(t),
                            DensityMode::MLC};
        std::vector<std::uint8_t> data(2048);
        for (std::size_t i = 0; i < data.size(); ++i)
            data[i] = static_cast<std::uint8_t>(i + t);
        const PageAddress addr{0, 0, 0};
        ctrl.writePage(addr, desc, data.data());

        std::vector<std::uint8_t> out(2048, 0);
        const auto r = ctrl.readPage(addr, desc, out.data(), t);
        EXPECT_EQ(r.status, ReadStatus::Corrected) << t;
        EXPECT_EQ(out, data) << t;
        dev.eraseBlock(0);
    }
}

TEST(ControllerRealPathTest, FlagsBeyondStrengthViaCrc)
{
    CellLifetimeModel m;
    FlashDevice dev(tinyGeom(), FlashTiming(), m, 5, 0.0, true);
    FlashMemoryController ctrl(dev);
    PageDescriptor desc{2, DensityMode::MLC};

    std::vector<std::uint8_t> data(2048, 0x5A);
    ctrl.writePage({1, 0, 0}, desc, data.data());
    std::vector<std::uint8_t> out(2048, 0);
    const auto r = ctrl.readPage({1, 0, 0}, desc, out.data(), 9);
    EXPECT_EQ(r.status, ReadStatus::Uncorrectable);
}

TEST(ControllerRealPathTest, DecodesWithTheStrengthThePageWasWrittenAt)
{
    // The cache may raise a valid page's strength in place. The
    // parity on the medium is still the old code, which the page's
    // OOB record names; the read must decode with it, while latency
    // is charged at the descriptor strength.
    CellLifetimeModel m;
    FlashDevice dev(tinyGeom(), FlashTiming(), m, 5, 0.0, true);
    FlashMemoryController ctrl(dev);

    std::vector<std::uint8_t> data(2048);
    for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<std::uint8_t>(i * 13);
    OobRecord oob;
    oob.lba = 3;
    oob.seq = 1;
    oob.eccStrength = 1;
    ctrl.writePage({0, 0, 0}, {1, DensityMode::MLC}, data.data(), &oob);

    const PageDescriptor raised{2, DensityMode::MLC};
    std::vector<std::uint8_t> out(2048, 0);
    const auto r = ctrl.readPage({0, 0, 0}, raised, out.data(), 1);
    EXPECT_EQ(r.status, ReadStatus::Corrected);
    EXPECT_EQ(r.correctedBits, 1u);
    EXPECT_EQ(out, data);
    EXPECT_EQ(r.latency, ctrl.readPage({0, 0, 0}, raised).latency);
}

TEST(ControllerRealPathTest, RecordStrengthPastTheHardwareLimitIsIgnored)
{
    // A spare tail whose record claims a code the hardware cannot
    // run (medium input) falls back to the descriptor strength.
    CellLifetimeModel m;
    FlashDevice dev(tinyGeom(), FlashTiming(), m, 5, 0.0, true);
    FlashMemoryController ctrl(dev);
    const PageDescriptor desc{2, DensityMode::MLC};

    std::vector<std::uint8_t> data(2048, 0x3C);
    ctrl.writePage({0, 0, 0}, desc, data.data());
    const PageBytes stored = dev.pageData({0, 0, 0});
    std::vector<std::uint8_t> spare(stored.data + 2048,
                                    stored.data + stored.size);
    OobRecord oob;
    oob.eccStrength = 200;
    packOobRecord(spare.data(), static_cast<std::uint32_t>(spare.size()),
                  oob);
    dev.programPage({1, 0, 0}, data.data(), spare.data());

    std::vector<std::uint8_t> out(2048, 0);
    const auto r = ctrl.readPage({1, 0, 0}, desc, out.data(), 2);
    EXPECT_EQ(r.status, ReadStatus::Corrected);
    EXPECT_EQ(out, data);
}

TEST(ReconfigPolicyTest, ColdPageUnderLongTailPrefersEcc)
{
    // A rarely accessed page: extra decode latency is nearly free,
    // while losing capacity costs misses (uniform / long-tailed
    // workloads in Figure 11 are dominated by ECC updates).
    ReconfigInputs in;
    in.pageAccessFreq = 1e-7;
    in.missRate = 0.3;
    in.missPenalty = milliseconds(4.2);
    in.hitLatency = microseconds(100);
    in.deltaCodeDelay = microseconds(30);
    in.deltaSlcGain = microseconds(25);
    in.deltaMiss = 0.3 / 65536.0;
    EXPECT_EQ(ReconfigPolicy::onFaultIncrease(in),
              ReconfigDecision::IncreaseEcc);
}

TEST(ReconfigPolicyTest, HotPagePrefersDensitySwitch)
{
    // A hot page: SLC's faster reads outweigh the capacity loss
    // (short-tailed workloads in Figure 11 flip toward density).
    ReconfigInputs in;
    in.pageAccessFreq = 0.05;
    in.missRate = 0.1;
    in.missPenalty = milliseconds(4.2);
    in.hitLatency = microseconds(100);
    in.deltaCodeDelay = microseconds(30);
    in.deltaSlcGain = microseconds(25);
    in.deltaMiss = 0.1 / 65536.0;
    EXPECT_EQ(ReconfigPolicy::onFaultIncrease(in),
              ReconfigDecision::SwitchToSlc);
}

TEST(ReconfigPolicyTest, ExhaustedKnobsRetireBlock)
{
    ReconfigInputs in;
    in.canIncreaseEcc = false;
    in.canSwitchToSlc = false;
    EXPECT_EQ(ReconfigPolicy::onFaultIncrease(in),
              ReconfigDecision::RetireBlock);
}

TEST(ReconfigPolicyTest, SingleRemainingKnobIsForced)
{
    ReconfigInputs hot;
    hot.pageAccessFreq = 0.5;
    hot.deltaSlcGain = microseconds(25);
    hot.deltaCodeDelay = microseconds(30);
    hot.canSwitchToSlc = false;
    EXPECT_EQ(ReconfigPolicy::onFaultIncrease(hot),
              ReconfigDecision::IncreaseEcc);
    hot.canSwitchToSlc = true;
    hot.canIncreaseEcc = false;
    EXPECT_EQ(ReconfigPolicy::onFaultIncrease(hot),
              ReconfigDecision::SwitchToSlc);
}

TEST(ReconfigPolicyTest, CostFormulasMatchPaper)
{
    ReconfigInputs in;
    in.pageAccessFreq = 0.01;
    in.missRate = 0.2;
    in.missPenalty = milliseconds(4);
    in.hitLatency = microseconds(50);
    in.deltaCodeDelay = microseconds(30);
    in.deltaSlcGain = microseconds(25);
    in.deltaMiss = 1e-6;
    const auto c = ReconfigPolicy::costs(in);
    EXPECT_DOUBLE_EQ(c.strongerEcc, 0.01 * microseconds(30));
    EXPECT_DOUBLE_EQ(c.densitySwitch,
                     1e-6 * (milliseconds(4) + microseconds(50)) -
                         0.01 * microseconds(25));
}

} // namespace
} // namespace flashcache
