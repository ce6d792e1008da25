/**
 * @file
 * CRC32 tests: known vectors, detection properties, and every
 * kernel (the 512-bit VPCLMULQDQ and 128-bit PCLMULQDQ folds and
 * slicing-by-8) against the byte-wise reference.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "ecc/clmul.hh"
#include "ecc/crc32.hh"
#include "support/crc32_bytewise.hh"
#include "util/rng.hh"

namespace flashcache {
namespace {

TEST(Crc32Test, KnownVectors)
{
    // Standard IEEE CRC-32 check values.
    const char* s = "123456789";
    EXPECT_EQ(crc32(reinterpret_cast<const std::uint8_t*>(s), 9),
              0xCBF43926u);
    EXPECT_EQ(crc32(nullptr, 0), 0u);
    const std::uint8_t zero[4] = {0, 0, 0, 0};
    EXPECT_EQ(crc32(zero, 4), 0x2144DF1Cu);
}

TEST(Crc32Test, IncrementalMatchesOneShot)
{
    Rng rng(1);
    std::vector<std::uint8_t> buf(1000);
    for (auto& b : buf)
        b = static_cast<std::uint8_t>(rng.uniformInt(256));
    const std::uint32_t oneshot = crc32(buf.data(), buf.size());
    std::uint32_t inc = 0;
    inc = crc32Update(inc, buf.data(), 100);
    inc = crc32Update(inc, buf.data() + 100, 650);
    inc = crc32Update(inc, buf.data() + 750, 250);
    EXPECT_EQ(inc, oneshot);
}

TEST(Crc32Test, SliceBy8MatchesBytewiseReference)
{
    // The slicing-by-8 fast path must agree with the one-table
    // reference at every length (covers the 8-byte fold, the tail
    // loop, and all alignments of the split point).
    Rng rng(7);
    std::vector<std::uint8_t> buf(4096);
    for (auto& b : buf)
        b = static_cast<std::uint8_t>(rng.uniformInt(256));
    for (std::size_t len = 0; len <= 64; ++len)
        EXPECT_EQ(crc32(buf.data(), len), crc32Bytewise(buf.data(), len))
            << len;
    for (std::size_t len : {65u, 100u, 1000u, 2047u, 2048u, 4096u})
        EXPECT_EQ(crc32(buf.data(), len), crc32Bytewise(buf.data(), len))
            << len;
    // Incremental forms agree with each other across odd split points.
    std::uint32_t a = 0, b = 0;
    a = crc32Update(a, buf.data(), 13);
    a = crc32Update(a, buf.data() + 13, 2035);
    b = crc32BytewiseUpdate(b, buf.data(), 1024);
    b = crc32BytewiseUpdate(b, buf.data() + 1024, 1024);
    EXPECT_EQ(a, b);
}

using Crc32Kernel = std::uint32_t (*)(std::uint32_t, const std::uint8_t*,
                                      std::size_t);

/**
 * A kernel agrees with crc32BytewiseUpdate from nonzero chained CRCs
 * at every length 0..max_len and at 2047, 2048 and 4096 bytes, each
 * at start offsets 0..offsets-1.
 */
void
expectKernelMatchesBytewise(Crc32Kernel kernel, std::size_t max_len,
                            std::size_t offsets)
{
    Rng rng(11);
    std::vector<std::uint8_t> buf(4096 + offsets);
    for (auto& b : buf)
        b = static_cast<std::uint8_t>(rng.uniformInt(256));
    const std::uint32_t chained[] = {crc32Bytewise(buf.data(), 9),
                                     0xFFFFFFFFu};
    std::vector<std::size_t> lens;
    for (std::size_t len = 0; len <= max_len; ++len)
        lens.push_back(len);
    for (std::size_t len : {2047u, 2048u, 4096u})
        lens.push_back(len);
    for (std::size_t off = 0; off < offsets; ++off) {
        for (std::size_t len : lens) {
            const std::uint32_t crc = chained[(off + len) % 2];
            ASSERT_EQ(kernel(crc, buf.data() + off, len),
                      crc32BytewiseUpdate(crc, buf.data() + off, len))
                << "offset " << off << " length " << len;
        }
    }
}

TEST(Crc32Test, TableKernelMatchesBytewiseReference)
{
    expectKernelMatchesBytewise(crc32UpdateTable, 300, 16);
}

TEST(Crc32Test, ClmulKernelMatchesBytewiseReference)
{
    // Every 4-lane/1-lane/tail split of the 128-bit fold.
    if (!haveClmul())
        GTEST_SKIP() << "host has no PCLMULQDQ";
    expectKernelMatchesBytewise(crc32UpdateClmul, 300, 16);
}

TEST(Crc32Test, WideKernelMatchesBytewiseReference)
{
    // 0..1100 bytes: below the 256-byte wide threshold, one to four
    // 256-byte steps, every count of trailing 64-byte zmm and 16-byte
    // xmm steps, and every tail; at every start offset mod 64.
    if (!haveWideClmul())
        GTEST_SKIP() << "host has no AVX-512F and VPCLMULQDQ";
    expectKernelMatchesBytewise(crc32UpdateWide, 1100, 64);
}

TEST(Crc32Test, RecordsKernelTiers)
{
    // Surfaces in the test XML which tiers this host ran, so a runner
    // without AVX-512 (whose wide tests skip) is visible.
    RecordProperty("have_clmul", haveClmul() ? 1 : 0);
    RecordProperty("have_wide_clmul", haveWideClmul() ? 1 : 0);
    EXPECT_TRUE(haveClmul() || !haveWideClmul());
}

TEST(Crc32Test, DetectsSingleBitFlips)
{
    Rng rng(2);
    std::vector<std::uint8_t> buf(2048);
    for (auto& b : buf)
        b = static_cast<std::uint8_t>(rng.uniformInt(256));
    const std::uint32_t good = crc32(buf.data(), buf.size());
    for (int trial = 0; trial < 200; ++trial) {
        const std::size_t bit = rng.uniformInt(2048 * 8);
        buf[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
        EXPECT_NE(crc32(buf.data(), buf.size()), good);
        buf[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    }
}

TEST(Crc32Test, DetectsSmallBursts)
{
    // CRC-32 catches any burst shorter than 32 bits.
    std::vector<std::uint8_t> buf(256, 0xA5);
    const std::uint32_t good = crc32(buf.data(), buf.size());
    Rng rng(3);
    for (int trial = 0; trial < 100; ++trial) {
        auto copy = buf;
        const std::size_t start = rng.uniformInt(256 * 8 - 31);
        const unsigned len = 1 + static_cast<unsigned>(rng.uniformInt(31));
        for (unsigned i = 0; i < len; ++i) {
            const std::size_t bit = start + i;
            if (i == 0 || i == len - 1 || rng.bernoulli(0.5))
                copy[bit / 8] ^= static_cast<std::uint8_t>(
                    1u << (bit % 8));
        }
        EXPECT_NE(crc32(copy.data(), copy.size()), good);
    }
}

} // namespace
} // namespace flashcache
