/**
 * @file
 * Differential tests for the word-parallel ECC hot path: the
 * table-driven encoder, byte-wise syndromes and incremental Chien
 * search must agree bit-for-bit with the retained bit-serial
 * reference (encodeReference/decodeReference) for every controller
 * strength t = 1..12 over randomized 2 KB pages with 0..t+1 injected
 * errors — including the t+1 overflow case, where both decoders must
 * detect or miscorrect identically. Edge cases of the slicing-by-8
 * remainder kernel (byte tails, r = 64, four state words) and of the
 * closed-form single-error locator are checked against the same
 * oracle, as are both remainder kernels (PCLMULQDQ fold and
 * slicing-by-8) called directly, and the closed-form degree-2 locator
 * on random error pairs. Also enforces the "no heap allocation in
 * steady-state encode/decode" contract by counting global operator
 * new calls around the hot path.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>
#include <set>
#include <utility>
#include <vector>

#include "ecc/bch.hh"
#include "ecc/clmul.hh"
#include "ecc/crc32.hh"
#include "support/bch_reference.hh"
#include "util/rng.hh"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

} // namespace

void*
operator new(std::size_t size)
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(size))
        return p;
    throw std::bad_alloc();
}

void*
operator new[](std::size_t size)
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(size))
        return p;
    throw std::bad_alloc();
}

// Kept out of line: inlined next to the replaced operator new, the
// free() calls trip GCC's -Wmismatched-new-delete.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void
operator delete(void* p, std::size_t) noexcept { std::free(p); }
[[gnu::noinline]] void
operator delete[](void* p, std::size_t) noexcept { std::free(p); }

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

/** Flip codeword bit p in the split data/parity buffers. */
void
flipCodewordBit(std::vector<std::uint8_t>& data,
                std::vector<std::uint8_t>& parity,
                std::uint32_t parity_bits, std::uint32_t p)
{
    if (p < parity_bits) {
        parity[p / 8] ^= static_cast<std::uint8_t>(1u << (p % 8));
    } else {
        const std::uint32_t q = p - parity_bits;
        data[q / 8] ^= static_cast<std::uint8_t>(1u << (q % 8));
    }
}

void
injectErrors(Rng& rng, std::vector<std::uint8_t>& data,
             std::vector<std::uint8_t>& parity, std::uint32_t parity_bits,
             unsigned k)
{
    const std::uint32_t total = static_cast<std::uint32_t>(
        data.size() * 8) + parity_bits;
    std::set<std::uint32_t> picks;
    while (picks.size() < k)
        picks.insert(static_cast<std::uint32_t>(rng.uniformInt(total)));
    for (std::uint32_t p : picks)
        flipCodewordBit(data, parity, parity_bits, p);
}

/**
 * Zero data with parity = errors(x) mod g(x): a received word
 * congruent to errors at the set coefficients of errors(x), which may
 * lie past the shortened word.
 */
void
wordCongruentTo(const BchCode& code, const Gf2Poly& errors,
                std::vector<std::uint8_t>& data,
                std::vector<std::uint8_t>& parity)
{
    const Gf2Poly rem = errors.mod(code.generator());
    data.assign(code.dataBits() / 8, 0);
    parity.assign(code.parityBytes(), 0);
    for (std::uint32_t i = 0; i < code.parityBits(); ++i) {
        if (rem.coeff(i))
            parity[i / 8] |= static_cast<std::uint8_t>(1u << (i % 8));
    }
}

/**
 * Decode a copy of (data, parity) with both decoders and require
 * identical outcomes and buffers. Returns the fast decoder's result
 * and leaves its corrected buffers in data/parity.
 */
BchDecodeResult
decodeBothAndCompare(const BchCode& code, std::vector<std::uint8_t>& data,
                     std::vector<std::uint8_t>& parity)
{
    auto ref_data = data;
    auto ref_parity = parity;
    const auto res = code.decode(data.data(), parity.data());
    const auto ref = decodeReference(code, ref_data.data(),
                                           ref_parity.data());
    EXPECT_EQ(res.ok, ref.ok);
    EXPECT_EQ(res.correctedBits, ref.correctedBits);
    EXPECT_EQ(data, ref_data);
    EXPECT_EQ(parity, ref_parity);
    for (unsigned i = 0; i < res.correctedBits &&
         i < BchDecodeResult::kMaxReportedPositions; ++i) {
        EXPECT_EQ(res.positions[i], ref.positions[i]) << "i=" << i;
    }
    return res;
}

TEST(BchDifferentialTest, PageEncoderMatchesReferenceForAllStrengths)
{
    Rng rng(71);
    for (unsigned t = 1; t <= 12; ++t) {
        BchCode code(15, t, 2048 * 8);
        for (int trial = 0; trial < 3; ++trial) {
            const auto data = randomBytes(rng, 2048);
            std::vector<std::uint8_t> fast(code.parityBytes(), 0xAA);
            std::vector<std::uint8_t> ref(code.parityBytes(), 0x55);
            code.encode(data.data(), fast.data());
            encodeReference(code, data.data(), ref.data());
            ASSERT_EQ(fast, ref) << "t=" << t << " trial=" << trial;
        }
    }
}

TEST(BchDifferentialTest, PageDecoderMatchesReferenceUpToTPlusOneErrors)
{
    // For k <= t both decoders must fully correct; for k = t + 1 they
    // must behave identically: same ok flag, same corrected count,
    // and bit-identical resulting buffers (detected-or-miscorrected
    // the same way).
    Rng rng(72);
    for (unsigned t = 1; t <= 12; ++t) {
        BchCode code(15, t, 2048 * 8);
        const auto orig = randomBytes(rng, 2048);
        std::vector<std::uint8_t> orig_parity(code.parityBytes(), 0);
        code.encode(orig.data(), orig_parity.data());

        for (unsigned k = 0; k <= t + 1; ++k) {
            auto data = orig;
            auto parity = orig_parity;
            injectErrors(rng, data, parity, code.parityBits(), k);
            auto ref_data = data;
            auto ref_parity = parity;

            const auto res = code.decode(data.data(), parity.data());
            const auto ref = decodeReference(code, ref_data.data(),
                                                   ref_parity.data());

            ASSERT_EQ(res.ok, ref.ok) << "t=" << t << " k=" << k;
            ASSERT_EQ(res.correctedBits, ref.correctedBits)
                << "t=" << t << " k=" << k;
            ASSERT_EQ(data, ref_data) << "t=" << t << " k=" << k;
            ASSERT_EQ(parity, ref_parity) << "t=" << t << " k=" << k;
            for (unsigned i = 0; i < res.correctedBits &&
                 i < BchDecodeResult::kMaxReportedPositions; ++i) {
                EXPECT_EQ(res.positions[i], ref.positions[i])
                    << "t=" << t << " k=" << k << " i=" << i;
            }
            if (k <= t) {
                EXPECT_TRUE(res.ok) << "t=" << t << " k=" << k;
                EXPECT_EQ(res.correctedBits, k);
                EXPECT_EQ(data, orig);
                EXPECT_EQ(parity, orig_parity);
            }
        }
    }
}

TEST(BchDifferentialTest, SmallCodesMatchReferenceToo)
{
    // Sweep small fields, including codes whose parity is not
    // byte-aligned and the r < 8 encoder fallback.
    Rng rng(73);
    const struct { unsigned m, t; std::uint32_t bytes; } params[] = {
        {5, 1, 2}, {5, 2, 1}, {6, 2, 4}, {8, 3, 16}, {10, 4, 64},
        {13, 6, 512},
    };
    for (const auto& pr : params) {
        BchCode code(pr.m, pr.t, pr.bytes * 8);
        for (unsigned k = 0; k <= pr.t + 1; ++k) {
            for (int trial = 0; trial < 4; ++trial) {
                const auto orig = randomBytes(rng, pr.bytes);
                std::vector<std::uint8_t> parity(code.parityBytes(), 0);
                code.encode(orig.data(), parity.data());
                std::vector<std::uint8_t> ref_par(code.parityBytes(), 0);
                encodeReference(code, orig.data(), ref_par.data());
                ASSERT_EQ(parity, ref_par) << "m=" << pr.m;

                auto data = orig;
                injectErrors(rng, data, parity, code.parityBits(), k);
                auto rd = data;
                auto rp = parity;
                const auto res = code.decode(data.data(), parity.data());
                const auto ref = decodeReference(code, rd.data(),
                                                       rp.data());
                ASSERT_EQ(res.ok, ref.ok)
                    << "m=" << pr.m << " t=" << pr.t << " k=" << k;
                ASSERT_EQ(res.correctedBits, ref.correctedBits);
                ASSERT_EQ(data, rd);
                ASSERT_EQ(parity, rp);
            }
        }
    }
}

TEST(BchDifferentialTest, KernelEdgeCodesMatchReference)
{
    // Edges of the slicing-by-8 remainder kernel, each with 0..t+1
    // random errors. r is pinned so no case can drift off its edge.
    const struct {
        unsigned m, t;
        std::uint32_t bytes, r;
        const char* edge;
    } params[] = {
        {15, 4, 2051, 60, "256 eight-byte blocks plus a 3-byte tail"},
        {8, 8, 23, 64, "r = 64: one full word, no alignment shift"},
        {15, 17, 2048, 255, "W = 4, the widest compiled state"},
        {10, 30, 61, 295, "r > 256: runtime word count"},
    };
    Rng rng(81);
    for (const auto& pr : params) {
        SCOPED_TRACE(pr.edge);
        BchCode code(pr.m, pr.t, pr.bytes * 8);
        ASSERT_EQ(code.parityBits(), pr.r);
        for (unsigned k = 0; k <= pr.t + 1; ++k) {
            const auto orig = randomBytes(rng, pr.bytes);
            std::vector<std::uint8_t> parity(code.parityBytes(), 0xAA);
            std::vector<std::uint8_t> ref_par(code.parityBytes(), 0x55);
            code.encode(orig.data(), parity.data());
            encodeReference(code, orig.data(), ref_par.data());
            ASSERT_EQ(parity, ref_par) << "k=" << k;

            auto data = orig;
            const auto orig_parity = parity;
            injectErrors(rng, data, parity, code.parityBits(), k);
            const auto res = decodeBothAndCompare(code, data, parity);
            if (k <= pr.t) {
                EXPECT_TRUE(res.ok) << "k=" << k;
                EXPECT_EQ(res.correctedBits, k);
                EXPECT_EQ(data, orig) << "k=" << k;
                EXPECT_EQ(parity, orig_parity) << "k=" << k;
            }
        }
    }
}

/** An encoder kernel: encodeTable, encodeClmul or encodeWide. */
using EncodeKernel = void (BchCode::*)(const std::uint8_t*,
                                       std::uint8_t*) const;

/**
 * The kernel agrees with encodeReference on codes the CLMUL fold
 * takes: every m = 15 page code with t <= 4, the r = 64 and r = 63
 * edges, and m = 15, t = 4 at lengths that exercise one lane only
 * (16, 48 bytes), four lanes with no step (64), four lanes plus
 * one-lane steps (112), and for the wide tier one 256-byte block
 * (256), a block plus one zmm step (320), three blocks plus three zmm
 * and three xmm steps (1008) and four blocks plus one xmm step (1040).
 */
void
expectKernelMatchesReference(EncodeKernel kernel)
{
    const struct {
        unsigned m, t;
        std::uint32_t bytes, r;
    } params[] = {
        {15, 1, 2048, 15}, {15, 2, 2048, 30}, {15, 3, 2048, 45},
        {15, 4, 2048, 60}, {16, 4, 2048, 64}, {9, 7, 48, 63},
        {15, 4, 16, 60},   {15, 4, 48, 60},   {15, 4, 64, 60},
        {15, 4, 112, 60},  {15, 4, 256, 60},  {15, 4, 320, 60},
        {15, 4, 1008, 60}, {15, 4, 1040, 60},
    };
    Rng rng(91);
    for (const auto& pr : params) {
        BchCode code(pr.m, pr.t, pr.bytes * 8);
        SCOPED_TRACE(::testing::Message() << "m=" << pr.m << " t=" << pr.t
                                          << " bytes=" << pr.bytes);
        ASSERT_EQ(code.parityBits(), pr.r);
        ASSERT_TRUE(code.hasClmulFold());
        std::vector<std::vector<std::uint8_t>> pages = {
            std::vector<std::uint8_t>(pr.bytes, 0xFF),
            std::vector<std::uint8_t>(pr.bytes, 0)};
        pages.back().back() = 0x80; // only the top coefficient set
        for (int trial = 0; trial < 20; ++trial)
            pages.push_back(randomBytes(rng, pr.bytes));
        for (const auto& data : pages) {
            std::vector<std::uint8_t> fast(code.parityBytes(), 0xAA);
            std::vector<std::uint8_t> ref(code.parityBytes(), 0x55);
            (code.*kernel)(data.data(), fast.data());
            encodeReference(code, data.data(), ref.data());
            ASSERT_EQ(fast, ref);
        }
    }
}

TEST(BchDifferentialTest, TableKernelMatchesReferenceOnFoldCodes)
{
    expectKernelMatchesReference(&BchCode::encodeTable);
}

TEST(BchDifferentialTest, ClmulKernelMatchesReferenceOnFoldCodes)
{
    if (!haveClmul())
        GTEST_SKIP() << "host has no PCLMULQDQ";
    expectKernelMatchesReference(&BchCode::encodeClmul);
}

TEST(BchDifferentialTest, WideKernelMatchesReferenceOnFoldCodes)
{
    if (!haveWideClmul())
        GTEST_SKIP() << "host has no AVX-512F and VPCLMULQDQ";
    expectKernelMatchesReference(&BchCode::encodeWide);
}

TEST(BchDifferentialTest, SingleRootOutsideShortenedWordIsUncorrectable)
{
    // Zero data with parity = x^p mod g(x) is congruent to a single
    // error at p. For p past the shortened word the degree-1 locator's
    // root lies outside it: both decoders must refuse and leave the
    // buffers untouched. Every page code with r <= 64 takes the
    // single-error check ahead of Berlekamp-Massey here.
    for (unsigned t = 1; t <= 4; ++t) {
        BchCode code(15, t, 2048 * 8);
        const std::uint32_t n = code.field().groupOrder();
        for (const std::uint32_t p : {code.codewordBits(),
                                      code.codewordBits() + 1, n - 1}) {
            std::vector<std::uint8_t> data;
            std::vector<std::uint8_t> parity;
            wordCongruentTo(code, Gf2Poly::monomial(p), data, parity);
            const auto data_in = data;
            const auto parity_in = parity;
            const auto res = decodeBothAndCompare(code, data, parity);
            EXPECT_FALSE(res.ok) << "t=" << t << " p=" << p;
            EXPECT_EQ(data, data_in) << "t=" << t << " p=" << p;
            EXPECT_EQ(parity, parity_in) << "t=" << t << " p=" << p;
        }
    }
}

TEST(BchDifferentialTest, ErrorPairsOnPageCodeMatchReference)
{
    // m = 15 is odd, so two errors take the closed-form half-trace
    // solve; positions come back ascending, as the Chien sweep gives.
    Rng rng(88);
    BchCode code(15, 4, 2048 * 8);
    const auto orig = randomBytes(rng, 2048);
    std::vector<std::uint8_t> orig_parity(code.parityBytes(), 0);
    code.encode(orig.data(), orig_parity.data());
    const std::uint32_t total = code.codewordBits();
    for (int trial = 0; trial < 300; ++trial) {
        auto data = orig;
        auto parity = orig_parity;
        std::uint32_t a = static_cast<std::uint32_t>(rng.uniformInt(total));
        std::uint32_t b = static_cast<std::uint32_t>(rng.uniformInt(total));
        if (trial == 0) {
            a = 0;
            b = total - 1;
        }
        if (a == b)
            continue;
        flipCodewordBit(data, parity, code.parityBits(), a);
        flipCodewordBit(data, parity, code.parityBits(), b);
        const auto res = decodeBothAndCompare(code, data, parity);
        ASSERT_TRUE(res.ok) << "a=" << a << " b=" << b;
        ASSERT_EQ(res.correctedBits, 2u);
        EXPECT_EQ(res.positions[0], std::min(a, b));
        EXPECT_EQ(res.positions[1], std::max(a, b));
        EXPECT_EQ(data, orig);
        EXPECT_EQ(parity, orig_parity);
    }
}

TEST(BchDifferentialTest, PairWithRootPastShortenedWordIsUncorrectable)
{
    // One locator root inside the word and one past it: both decoders
    // must refuse and leave the buffers untouched.
    BchCode code(15, 4, 2048 * 8);
    const std::uint32_t total = code.codewordBits();
    const std::uint32_t n = code.field().groupOrder();
    const std::pair<std::uint32_t, std::uint32_t> pairs[] = {
        {0, total}, {total - 1, n - 1}, {12345, total + 7},
        {total, n - 1}};
    for (const auto& [a, b] : pairs) {
        std::vector<std::uint8_t> data;
        std::vector<std::uint8_t> parity;
        wordCongruentTo(code, Gf2Poly::monomial(a) + Gf2Poly::monomial(b),
                        data, parity);
        const auto data_in = data;
        const auto parity_in = parity;
        const auto res = decodeBothAndCompare(code, data, parity);
        EXPECT_FALSE(res.ok) << "a=" << a << " b=" << b;
        EXPECT_EQ(data, data_in);
        EXPECT_EQ(parity, parity_in);
    }
}

TEST(BchDifferentialTest, EvenFieldErrorPairsMatchReference)
{
    // Even m has no half-trace solve; two errors keep the Chien sweep.
    Rng rng(89);
    const struct { unsigned m, t; std::uint32_t bytes; } params[] = {
        {10, 3, 64}, {16, 4, 2048}};
    for (const auto& pr : params) {
        BchCode code(pr.m, pr.t, pr.bytes * 8);
        const auto orig = randomBytes(rng, pr.bytes);
        std::vector<std::uint8_t> orig_parity(code.parityBytes(), 0);
        code.encode(orig.data(), orig_parity.data());
        for (int trial = 0; trial < 40; ++trial) {
            auto data = orig;
            auto parity = orig_parity;
            injectErrors(rng, data, parity, code.parityBits(), 2);
            const auto res = decodeBothAndCompare(code, data, parity);
            ASSERT_TRUE(res.ok) << "m=" << pr.m;
            ASSERT_EQ(res.correctedBits, 2u);
            EXPECT_LT(res.positions[0], res.positions[1]);
            EXPECT_EQ(data, orig);
        }
    }
}

TEST(BchDifferentialTest, SingleErrorAtEveryPositionOfSmallCode)
{
    // r = 30 (not byte aligned) over 13 data bytes (a 5-byte tail).
    Rng rng(84);
    BchCode code(10, 3, 13 * 8);
    const auto orig = randomBytes(rng, 13);
    std::vector<std::uint8_t> orig_parity(code.parityBytes(), 0);
    code.encode(orig.data(), orig_parity.data());
    for (std::uint32_t p = 0; p < code.codewordBits(); ++p) {
        auto data = orig;
        auto parity = orig_parity;
        flipCodewordBit(data, parity, code.parityBits(), p);
        const auto res = decodeBothAndCompare(code, data, parity);
        ASSERT_TRUE(res.ok) << "p=" << p;
        ASSERT_EQ(res.correctedBits, 1u);
        EXPECT_EQ(res.positions[0], p);
        EXPECT_EQ(data, orig) << "p=" << p;
        EXPECT_EQ(parity, orig_parity) << "p=" << p;
    }
}

TEST(BchDifferentialTest, SingleErrorsOnPageCode)
{
    // The dominant correction case of the real-data read path: one bit
    // error on a t = 4 page, at the parity/data boundaries and at
    // 1,000 random positions.
    Rng rng(85);
    BchCode code(15, 4, 2048 * 8);
    const auto orig = randomBytes(rng, 2048);
    std::vector<std::uint8_t> orig_parity(code.parityBytes(), 0);
    code.encode(orig.data(), orig_parity.data());
    const std::uint32_t r = code.parityBits();
    std::vector<std::uint32_t> picks = {0, r - 1, r,
                                        code.codewordBits() - 1};
    for (int i = 0; i < 1000; ++i) {
        picks.push_back(static_cast<std::uint32_t>(
            rng.uniformInt(code.codewordBits())));
    }
    for (const std::uint32_t p : picks) {
        auto data = orig;
        auto parity = orig_parity;
        flipCodewordBit(data, parity, r, p);
        const auto res = decodeBothAndCompare(code, data, parity);
        ASSERT_TRUE(res.ok) << "p=" << p;
        ASSERT_EQ(res.correctedBits, 1u);
        EXPECT_EQ(res.positions[0], p);
        EXPECT_EQ(data, orig) << "p=" << p;
        EXPECT_EQ(parity, orig_parity) << "p=" << p;
    }
}

TEST(BchDifferentialTest, SingleErrorAtEveryPositionOfPageCodes)
{
    // The single-error check ahead of Berlekamp-Massey, at every data
    // and parity position of the t = 1..4 page codes. Every decode
    // must restore the page and report p; at every parity position,
    // the last one and every 127th data position it must also match
    // decodeReference bit for bit. (decodeReference at all 65,700
    // positions takes ~40 s, too long for this tier.)
    Rng rng(86);
    for (unsigned t = 1; t <= 4; ++t) {
        SCOPED_TRACE(::testing::Message() << "t=" << t);
        BchCode code(15, t, 2048 * 8);
        const auto orig = randomBytes(rng, 2048);
        std::vector<std::uint8_t> orig_parity(code.parityBytes(), 0);
        code.encode(orig.data(), orig_parity.data());
        auto data = orig;
        auto parity = orig_parity;
        const std::uint32_t r = code.parityBits();
        const std::uint32_t total = code.codewordBits();
        for (std::uint32_t p = 0; p < total; ++p) {
            flipCodewordBit(data, parity, r, p);
            const bool oracle = p <= r || p + 1 == total ||
                                (p - r) % 127 == 0;
            const auto res = oracle
                ? decodeBothAndCompare(code, data, parity)
                : code.decode(data.data(), parity.data());
            ASSERT_TRUE(res.ok) << "p=" << p;
            ASSERT_EQ(res.correctedBits, 1u);
            ASSERT_EQ(res.positions[0], p);
            ASSERT_EQ(data, orig) << "p=" << p;
            ASSERT_EQ(parity, orig_parity) << "p=" << p;
        }
    }
}

TEST(BchDifferentialTest, FourErrorsWithSingleErrorS3AreNotOneError)
{
    // Four errors whose S_3 happens to equal S_1^3, as one error's
    // would, but whose S_5 does not: the single-error check must look
    // past S_3 and leave the word to Berlekamp-Massey, which corrects
    // all four. About one 4-error pattern in 2^15 qualifies.
    Rng rng(90);
    BchCode code(15, 4, 2048 * 8);
    const GaloisField& gf = code.field();
    const std::uint32_t total = code.codewordBits();
    const std::uint32_t n = gf.groupOrder();
    auto syndrome = [&](const std::set<std::uint32_t>& errs, unsigned j) {
        GaloisField::Elem s = 0;
        for (const std::uint32_t p : errs)
            s ^= gf.alphaPow(static_cast<std::int64_t>(
                static_cast<std::uint64_t>(p) * j % n));
        return s;
    };
    std::set<std::uint32_t> errs;
    for (int trial = 0; trial < 2000000; ++trial) {
        errs.clear();
        while (errs.size() < 4)
            errs.insert(static_cast<std::uint32_t>(rng.uniformInt(total)));
        const GaloisField::Elem s1 = syndrome(errs, 1);
        const std::int64_t l1 = s1 ? gf.logAlpha(s1) : 0;
        if (s1 != 0 && syndrome(errs, 3) == gf.alphaPow(3 * l1) &&
            syndrome(errs, 5) != gf.alphaPow(5 * l1)) {
            break;
        }
        errs.clear();
    }
    ASSERT_EQ(errs.size(), 4u) << "no qualifying pattern found";

    const auto orig = randomBytes(rng, 2048);
    std::vector<std::uint8_t> orig_parity(code.parityBytes(), 0);
    code.encode(orig.data(), orig_parity.data());
    auto data = orig;
    auto parity = orig_parity;
    for (const std::uint32_t p : errs)
        flipCodewordBit(data, parity, code.parityBits(), p);
    const auto res = decodeBothAndCompare(code, data, parity);
    EXPECT_TRUE(res.ok);
    EXPECT_EQ(res.correctedBits, 4u);
    EXPECT_EQ(data, orig);
    EXPECT_EQ(parity, orig_parity);
}

TEST(BchDifferentialTest, CleanlinessCheckMatchesDecode)
{
    Rng rng(74);
    BchCode code(15, 8, 2048 * 8);
    auto data = randomBytes(rng, 2048);
    std::vector<std::uint8_t> parity(code.parityBytes(), 0);
    code.encode(data.data(), parity.data());
    EXPECT_TRUE(code.isCodewordClean(data.data(), parity.data()));
    data[1234] ^= 0x10;
    EXPECT_FALSE(code.isCodewordClean(data.data(), parity.data()));
}

TEST(BchDifferentialTest, BitsAboveParityAreNotPartOfTheWord)
{
    // r = 60: the top 4 bits of the last parity byte lie outside the
    // codeword, so whatever they hold must not read as an error.
    Rng rng(87);
    BchCode code(15, 4, 2048 * 8);
    ASSERT_NE(code.parityBits() % 8, 0u);
    const auto orig = randomBytes(rng, 2048);
    std::vector<std::uint8_t> parity(code.parityBytes(), 0);
    code.encode(orig.data(), parity.data());
    const unsigned used = code.parityBits() % 8;
    parity.back() |= static_cast<std::uint8_t>(0xFFu << used);
    auto data = orig;
    EXPECT_TRUE(code.isCodewordClean(data.data(), parity.data()));
    const auto parity_in = parity;
    const auto res = decodeBothAndCompare(code, data, parity);
    EXPECT_TRUE(res.ok);
    EXPECT_EQ(res.correctedBits, 0u);
    EXPECT_EQ(parity, parity_in);

    flipCodewordBit(data, parity, code.parityBits(), 12345);
    const auto fixed = decodeBothAndCompare(code, data, parity);
    EXPECT_TRUE(fixed.ok);
    EXPECT_EQ(fixed.correctedBits, 1u);
    EXPECT_EQ(data, orig);
    EXPECT_EQ(parity, parity_in);
}

TEST(BchDifferentialTest, SteadyStateEncodeDecodeDoNotAllocate)
{
    // The acceptance contract of the word-parallel rewrite: after
    // construction, encode and decode (clean, corrected and overflow
    // paths) never touch the heap. t = 4 takes the CLMUL fold (on a
    // host with it), the single-error check and the closed-form
    // two-error locator; t = 12 the multiword table kernel and the
    // Chien sweep.
    Rng rng(75);
    for (const unsigned t : {4u, 12u}) {
        SCOPED_TRACE(::testing::Message() << "t=" << t);
        BchCode code(15, t, 2048 * 8);
        auto data = randomBytes(rng, 2048);
        std::vector<std::uint8_t> parity(code.parityBytes(), 0);

        // Warm up every path once (lazy CRC-style statics, etc.).
        code.encode(data.data(), parity.data());
        (void)code.decode(data.data(), parity.data());

        const std::uint64_t before = g_allocations.load();

        code.encode(data.data(), parity.data());

        // Clean decode.
        auto res = code.decode(data.data(), parity.data());
        EXPECT_TRUE(res.ok);

        // Decode with one error, two, then t correctable errors.
        for (const unsigned nerr : {1u, 2u, t}) {
            for (unsigned e = 0; e < nerr; ++e)
                data[100 * e + 3] ^= 4;
            res = code.decode(data.data(), parity.data());
            EXPECT_TRUE(res.ok);
            EXPECT_EQ(res.correctedBits, nerr);
        }

        // isCodewordClean rides the same syndrome path.
        EXPECT_TRUE(code.isCodewordClean(data.data(), parity.data()));

        // Overflow (detected or miscorrected): still allocation-free.
        for (unsigned e = 0; e < t + 2; ++e)
            data[50 * e + 7] ^= 0x20;
        (void)code.decode(data.data(), parity.data());

        EXPECT_EQ(g_allocations.load(), before)
            << "steady-state encode/decode touched the heap";
    }
}

} // namespace
} // namespace flashcache
