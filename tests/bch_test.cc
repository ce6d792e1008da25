/**
 * @file
 * BCH codec tests: known-code structure checks, exhaustive small-code
 * correction, and randomized property sweeps on the production
 * GF(2^15) page code — "inject <= t errors, decode exactly; inject
 * more, never pretend success undetectably past the CRC".
 */

#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <vector>

#include "ecc/bch.hh"
#include "ecc/crc32.hh"
#include "ecc/ecc_timing.hh"
#include "support/gf2_poly_support.hh"
#include "util/rng.hh"

namespace flashcache {
namespace {

std::vector<std::uint8_t>
randomBytes(Rng& rng, std::size_t n)
{
    std::vector<std::uint8_t> v(n);
    for (auto& b : v)
        b = static_cast<std::uint8_t>(rng.uniformInt(256));
    return v;
}

/** Flip k distinct random bits across the (data, parity) pair. */
std::set<std::uint32_t>
injectErrors(Rng& rng, std::vector<std::uint8_t>& data,
             std::vector<std::uint8_t>& parity, std::uint32_t parity_bits,
             unsigned k)
{
    const std::uint32_t total = static_cast<std::uint32_t>(
        data.size() * 8) + parity_bits;
    std::set<std::uint32_t> picks;
    while (picks.size() < k)
        picks.insert(static_cast<std::uint32_t>(rng.uniformInt(total)));
    for (std::uint32_t p : picks) {
        if (p < parity_bits)
            parity[p / 8] ^= static_cast<std::uint8_t>(1u << (p % 8));
        else {
            const std::uint32_t q = p - parity_bits;
            data[q / 8] ^= static_cast<std::uint8_t>(1u << (q % 8));
        }
    }
    return picks;
}

TEST(BchCodeTest, ClassicBch15_5_7Generator)
{
    // The t = 3, m = 4 BCH code is the textbook (15,5,7) code with
    // g(x) = x^10 + x^8 + x^5 + x^4 + x^2 + x + 1 (Lin & Costello).
    BchCode code(4, 3, 0);
    EXPECT_EQ(code.generator(), fromMask(0b10100110111));
    EXPECT_EQ(code.parityBits(), 10u);
}

TEST(BchCodeTest, GeneratorDegreeMatchesParity)
{
    BchCode code(6, 2, 48);
    EXPECT_EQ(code.parityBits(),
              static_cast<std::uint32_t>(code.generator().degree()));
    EXPECT_LE(code.parityBits(), 2u * 6u);
}

/**
 * The generator of every page code the controller builds (m = 15,
 * 2 KB of data, t = 1..12), coefficient i in bit i % 64 of word
 * i / 64. Any change to how the generator is built shows here first:
 * the bit-serial oracle in tests/support encodes with the same
 * generator(), so it cannot catch one.
 */
struct PinnedGenerator
{
    unsigned t;
    long degree;
    std::uint64_t words[3];
};

constexpr PinnedGenerator kPageGenerators[] = {
    {1, 15, {0x0000000000008003ull, 0, 0}},
    {2, 30, {0x0000000042100c65ull, 0, 0}},
    {3, 45, {0x0000252bd044a787ull, 0, 0}},
    {4, 60, {0x1744edb8b36fb1d1ull, 0, 0}},
    {5, 75, {0x9d6757cc252cf607ull, 0x0000000000000bfcull, 0}},
    {6, 90, {0xa912c1c03a33f855ull, 0x0000000005a698c6ull, 0}},
    {7, 105, {0xbadac64b1e2c94c3ull, 0x000002d0c3cc0a13ull, 0}},
    {8, 120, {0x5e3ac4b4ba03a5c7ull, 0x01b04555c0d28460ull, 0}},
    {9, 135, {0xaeb125a1f2f0e61full, 0x094a8c68a3bb25eeull,
              0x00000000000000dcull}},
    {10, 150, {0xdc40965fa2c89c8bull, 0x353f4ef75cf1c3adull,
               0x000000000063d73cull}},
    {11, 165, {0x729b68211646f2cbull, 0xed71b3199a94846bull,
               0x0000003f8d984f31ull}},
    {12, 180, {0xd1f0e168d8592b1bull, 0x8b1c4a9371685b35ull,
               0x001f3ccca1b16b1full}},
};

TEST(BchCodeTest, PageCodeGeneratorsArePinned)
{
    for (const PinnedGenerator& pin : kPageGenerators) {
        const BchCode code(15, pin.t, 2048 * 8);
        const Gf2Poly& g = code.generator();
        ASSERT_EQ(g.degree(), pin.degree) << "t=" << pin.t;
        EXPECT_EQ(code.parityBits(),
                  static_cast<std::uint32_t>(g.degree()))
            << "t=" << pin.t;
        for (std::size_t i = 0; i < 3 * 64; ++i) {
            const bool want = (pin.words[i / 64] >> (i % 64)) & 1;
            EXPECT_EQ(g.coeff(i), want)
                << "t=" << pin.t << " coefficient " << i;
        }
        // alpha^1 .. alpha^2t are roots: the designed distance.
        for (unsigned i = 1; i <= 2 * pin.t; ++i) {
            EXPECT_EQ(eval(g, code.field(), code.field().alphaPow(i)), 0u)
                << "t=" << pin.t << " alpha^" << i;
        }
    }
}

TEST(BchCodeTest, GeneratorDividesEveryCodeword)
{
    BchCode code(5, 2, 16);
    Rng rng(1);
    for (int trial = 0; trial < 50; ++trial) {
        auto data = randomBytes(rng, 2);
        std::vector<std::uint8_t> parity(code.parityBytes(), 0);
        code.encode(data.data(), parity.data());
        // Reassemble codeword polynomial and verify g | c.
        Gf2Poly cw;
        for (std::uint32_t i = 0; i < code.parityBits(); ++i)
            if ((parity[i / 8] >> (i % 8)) & 1)
                cw.setCoeff(i, true);
        for (std::uint32_t i = 0; i < code.dataBits(); ++i)
            if ((data[i / 8] >> (i % 8)) & 1)
                cw.setCoeff(code.parityBits() + i, true);
        EXPECT_TRUE(cw.mod(code.generator()).isZero());
    }
}

TEST(BchCodeTest, CleanWordDecodesClean)
{
    BchCode code(8, 4, 128);
    Rng rng(2);
    auto data = randomBytes(rng, 16);
    std::vector<std::uint8_t> parity(code.parityBytes(), 0);
    code.encode(data.data(), parity.data());
    EXPECT_TRUE(code.isCodewordClean(data.data(), parity.data()));
    const auto orig = data;
    const auto res = code.decode(data.data(), parity.data());
    EXPECT_TRUE(res.ok);
    EXPECT_EQ(res.correctedBits, 0u);
    EXPECT_EQ(data, orig);
}

/** Parameterized over (m, t, data_bytes). */
struct CodeParams
{
    unsigned m;
    unsigned t;
    std::uint32_t dataBytes;
};

class BchPropertyTest : public ::testing::TestWithParam<CodeParams>
{
};

TEST_P(BchPropertyTest, CorrectsUpToTErrors)
{
    const auto [m, t, nbytes] = GetParam();
    BchCode code(m, t, nbytes * 8);
    Rng rng(1000 + m * 31 + t);
    for (unsigned k = 0; k <= t; ++k) {
        for (int trial = 0; trial < 8; ++trial) {
            auto data = randomBytes(rng, nbytes);
            const auto orig = data;
            std::vector<std::uint8_t> parity(code.parityBytes(), 0);
            code.encode(data.data(), parity.data());
            const auto orig_parity = parity;

            injectErrors(rng, data, parity, code.parityBits(), k);
            const auto res = code.decode(data.data(), parity.data());
            ASSERT_TRUE(res.ok) << "m=" << m << " t=" << t << " k=" << k;
            EXPECT_EQ(res.correctedBits, k);
            EXPECT_EQ(data, orig);
            EXPECT_EQ(parity, orig_parity);
        }
    }
}

TEST_P(BchPropertyTest, BeyondTNeverCorruptsSilentlyPastCrc)
{
    const auto [m, t, nbytes] = GetParam();
    BchCode code(m, t, nbytes * 8);
    Rng rng(9000 + m * 31 + t);
    int detected = 0, miscorrected = 0;
    const int trials = 30;
    for (int trial = 0; trial < trials; ++trial) {
        auto data = randomBytes(rng, nbytes);
        const auto orig = data;
        const std::uint32_t crc = crc32(data.data(), data.size());
        std::vector<std::uint8_t> parity(code.parityBytes(), 0);
        code.encode(data.data(), parity.data());

        injectErrors(rng, data, parity, code.parityBits(), t + 2);
        const auto res = code.decode(data.data(), parity.data());
        if (!res.ok) {
            ++detected;
            continue;
        }
        // Decoder claimed success with > t injected errors: that is a
        // miscorrection. The CRC layer must catch it.
        if (data != orig) {
            ++miscorrected;
            EXPECT_NE(crc32(data.data(), data.size()), crc);
        }
    }
    // Every overflow either got flagged by the decoder or, when the
    // decoder miscorrected, the CRC caught it (asserted above). Weak
    // codes (small t) miscorrect often — that is exactly why the
    // paper adds the CRC layer; stronger codes should mostly detect.
    EXPECT_GT(detected + miscorrected, 0);
    if (t >= 3) {
        EXPECT_GE(detected, trials / 3);
    }
}

INSTANTIATE_TEST_SUITE_P(CodeSweep, BchPropertyTest,
    ::testing::Values(CodeParams{5, 1, 2}, CodeParams{6, 2, 4},
                      CodeParams{8, 3, 16}, CodeParams{10, 4, 64},
                      CodeParams{13, 6, 512}, CodeParams{15, 2, 2048},
                      CodeParams{15, 8, 2048}, CodeParams{15, 12, 2048}));

TEST(BchPageCodeTest, PaperParityBudget)
{
    // Section 4.1: t = 12 over a 2 KB page must need at most 23 bytes
    // of check bits, leaving room for CRC32 in the 64-byte spare.
    BchCode code(15, 12, 2048 * 8);
    EXPECT_LE(code.parityBytes(), 23u);
    EXPECT_EQ(code.parityBits(), 15u * 12u);
}

TEST(BchPageCodeTest, ErrorsInParityAreAlsoCorrected)
{
    BchCode code(15, 4, 2048 * 8);
    Rng rng(5);
    auto data = randomBytes(rng, 2048);
    const auto orig = data;
    std::vector<std::uint8_t> parity(code.parityBytes(), 0);
    code.encode(data.data(), parity.data());
    const auto orig_parity = parity;
    // Flip bits only inside the parity region.
    parity[0] ^= 0x3; // two bit errors
    const auto res = code.decode(data.data(), parity.data());
    EXPECT_TRUE(res.ok);
    EXPECT_EQ(res.correctedBits, 2u);
    EXPECT_EQ(data, orig);
    EXPECT_EQ(parity, orig_parity);
}

TEST(BchPageCodeTest, BurstErrorWithinStrength)
{
    BchCode code(15, 12, 2048 * 8);
    Rng rng(6);
    auto data = randomBytes(rng, 2048);
    const auto orig = data;
    std::vector<std::uint8_t> parity(code.parityBytes(), 0);
    code.encode(data.data(), parity.data());
    // A clustered 12-bit burst (spatially-correlated bad cells,
    // section 4.1.3).
    data[100] ^= 0xFF;
    data[101] ^= 0x0F;
    const auto res = code.decode(data.data(), parity.data());
    EXPECT_TRUE(res.ok);
    EXPECT_EQ(res.correctedBits, 12u);
    EXPECT_EQ(data, orig);
}

TEST(EccTimingTest, MatchesPaperRange)
{
    // Table 3: BCH code latency 58 us ~ 400 us over the strengths the
    // controller uses.
    EccTimingModel model;
    const Seconds lo = model.decodeLatency(2).total();
    const Seconds hi = model.decodeLatency(12).total();
    EXPECT_GT(lo, microseconds(40));
    EXPECT_LT(lo, microseconds(90));
    EXPECT_GT(hi, microseconds(300));
    EXPECT_LT(hi, microseconds(450));
}

TEST(EccTimingTest, MonotoneAndChienSyndromeDominated)
{
    EccTimingModel model;
    Seconds prev = 0.0;
    for (unsigned t = 1; t <= 50; ++t) {
        const auto lat = model.decodeLatency(t);
        EXPECT_GT(lat.total(), prev);
        prev = lat.total();
        // Berlekamp is "insignificant" (section 4.1.1).
        EXPECT_LT(lat.berlekamp, 0.05 * lat.total());
    }
}

TEST(EccTimingTest, ZeroStrengthIsFree)
{
    EccTimingModel model;
    EXPECT_DOUBLE_EQ(model.decodeLatency(0).total(), 0.0);
}

TEST(EccTimingTest, EncodeMuchCheaperThanDecode)
{
    EccTimingModel model;
    for (unsigned t : {1u, 6u, 12u})
        EXPECT_LT(model.encodeLatency(t), model.decodeLatency(t).total());
}

} // namespace
} // namespace flashcache
