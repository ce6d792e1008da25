/**
 * @file
 * Tests for GF(2^m) arithmetic and GF(2) polynomials, including
 * parameterized field-axiom property checks over several degrees.
 */

#include <gtest/gtest.h>

#include "gf/gf2_poly.hh"
#include "gf/gf2m.hh"
#include "support/gf2_poly_support.hh"
#include "util/rng.hh"

namespace flashcache {
namespace {

class FieldAxioms : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(FieldAxioms, MultiplicationAgainstCarrylessReduce)
{
    const unsigned m = GetParam();
    GaloisField gf(m);
    // Reference multiply: carryless product reduced mod the
    // primitive polynomial.
    auto ref_mul = [&](std::uint32_t a, std::uint32_t b) {
        std::uint64_t prod = 0;
        for (unsigned i = 0; i < m; ++i)
            if (b & (1u << i))
                prod ^= static_cast<std::uint64_t>(a) << i;
        for (int i = 2 * m - 2; i >= static_cast<int>(m); --i)
            if (prod & (1ull << i))
                prod ^= static_cast<std::uint64_t>(gf.primitivePoly())
                    << (i - m);
        return static_cast<std::uint32_t>(prod);
    };
    Rng rng(m);
    for (int i = 0; i < 2000; ++i) {
        const auto a = static_cast<std::uint32_t>(
            rng.uniformInt(gf.size()));
        const auto b = static_cast<std::uint32_t>(
            rng.uniformInt(gf.size()));
        EXPECT_EQ(gf.mul(a, b), ref_mul(a, b))
            << "a=" << a << " b=" << b << " m=" << m;
        EXPECT_EQ(gf.mulCarryless(a, b), ref_mul(a, b))
            << "a=" << a << " b=" << b << " m=" << m;
    }
}

TEST_P(FieldAxioms, InverseAndDivision)
{
    GaloisField gf(GetParam());
    for (GaloisField::Elem a = 1; a < gf.size(); ++a) {
        EXPECT_EQ(gf.mul(a, gf.div(1, a)), 1u);
        EXPECT_EQ(gf.div(a, a), 1u);
    }
}

TEST_P(FieldAxioms, DistributivityAndAssociativity)
{
    GaloisField gf(GetParam());
    Rng rng(77);
    for (int i = 0; i < 1000; ++i) {
        const auto a = static_cast<std::uint32_t>(
            rng.uniformInt(gf.size()));
        const auto b = static_cast<std::uint32_t>(
            rng.uniformInt(gf.size()));
        const auto c = static_cast<std::uint32_t>(
            rng.uniformInt(gf.size()));
        EXPECT_EQ(gf.mul(a, b ^ c), gf.mul(a, b) ^ gf.mul(a, c));
        EXPECT_EQ(gf.mul(gf.mul(a, b), c), gf.mul(a, gf.mul(b, c)));
    }
}

TEST_P(FieldAxioms, AlphaPowWraps)
{
    GaloisField gf(GetParam());
    const std::int64_t n = gf.groupOrder();
    EXPECT_EQ(gf.alphaPow(0), 1u);
    EXPECT_EQ(gf.alphaPow(n), 1u);
    EXPECT_EQ(gf.alphaPow(-1), gf.div(1, 2));
    EXPECT_EQ(gf.alphaPow(1), 2u);
}

TEST_P(FieldAxioms, PowMatchesRepeatedMul)
{
    GaloisField gf(GetParam());
    Rng rng(5);
    for (int i = 0; i < 200; ++i) {
        const auto a = static_cast<std::uint32_t>(
            1 + rng.uniformInt(gf.size() - 1));
        const auto e = rng.uniformInt(20);
        GaloisField::Elem acc = 1;
        for (std::uint64_t j = 0; j < e; ++j)
            acc = gf.mul(acc, a);
        // a^e through the log and antilog tables.
        const std::int64_t le = static_cast<std::int64_t>(gf.logAlpha(a));
        EXPECT_EQ(gf.alphaPow(le * static_cast<std::int64_t>(e)), acc);
    }
}

INSTANTIATE_TEST_SUITE_P(Degrees, FieldAxioms,
                         ::testing::Values(4u, 8u, 10u, 13u, 15u));

TEST(GaloisFieldTest, ZeroBehaviour)
{
    GaloisField gf(8);
    EXPECT_EQ(gf.mul(0, 123), 0u);
    EXPECT_EQ(gf.mul(123, 0), 0u);
    EXPECT_EQ(gf.div(0, 123), 0u);
}

TEST(Gf2PolyTest, DegreeAndCoefficients)
{
    Gf2Poly p = fromMask(0b10011); // x^4 + x + 1
    EXPECT_EQ(p.degree(), 4);
    EXPECT_TRUE(p.coeff(0));
    EXPECT_TRUE(p.coeff(1));
    EXPECT_FALSE(p.coeff(2));
    EXPECT_TRUE(p.coeff(4));
    EXPECT_EQ(Gf2Poly().degree(), -1);
}

TEST(Gf2PolyTest, AddIsXor)
{
    const Gf2Poly a = fromMask(0b1011);
    const Gf2Poly b = fromMask(0b0110);
    EXPECT_EQ(a + b, fromMask(0b1101));
    EXPECT_TRUE((a + a).isZero());
}

TEST(Gf2PolyTest, MultiplyKnownProduct)
{
    // (x + 1)(x^2 + x + 1) = x^3 + 1 over GF(2).
    const Gf2Poly a = fromMask(0b11);
    const Gf2Poly b = fromMask(0b111);
    EXPECT_EQ(a * b, fromMask(0b1001));
}

TEST(Gf2PolyTest, MultiplyAcrossWordBoundary)
{
    const Gf2Poly a = Gf2Poly::monomial(63);
    const Gf2Poly b = fromMask(0b11);
    Gf2Poly expect = Gf2Poly::monomial(64) + Gf2Poly::monomial(63);
    EXPECT_EQ(a * b, expect);
}

TEST(Gf2PolyTest, ModMatchesMulRoundTrip)
{
    Rng rng(21);
    for (int trial = 0; trial < 200; ++trial) {
        Gf2Poly g;
        // Random divisor of degree 5..90 (force leading term).
        const std::size_t dg = 5 + rng.uniformInt(86);
        for (std::size_t i = 0; i < dg; ++i)
            g.setCoeff(i, rng.bernoulli(0.5));
        g.setCoeff(dg, true);

        Gf2Poly q;
        const std::size_t dq = rng.uniformInt(200);
        for (std::size_t i = 0; i <= dq; ++i)
            q.setCoeff(i, rng.bernoulli(0.5));

        Gf2Poly r;
        for (std::size_t i = 0; i < dg; ++i)
            r.setCoeff(i, rng.bernoulli(0.5));

        const Gf2Poly dividend = q * g + r;
        EXPECT_EQ(dividend.mod(g), r);
    }
}

TEST(Gf2PolyTest, MinimalPolynomialHasRoot)
{
    GaloisField gf(8);
    for (std::uint32_t e : {1u, 3u, 5u, 7u, 11u}) {
        const Gf2Poly mp = minimalPolynomial(gf, e);
        // alpha^e and all its conjugates are roots.
        EXPECT_EQ(eval(mp, gf, gf.alphaPow(e)), 0u) << e;
        EXPECT_EQ(eval(mp, gf, gf.alphaPow(2 * e)), 0u) << e;
        // Degree divides m.
        EXPECT_EQ(8 % mp.degree(), 0) << e;
    }
}

} // namespace
} // namespace flashcache
