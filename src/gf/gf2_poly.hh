/**
 * @file
 * Polynomials over GF(2), stored as bit vectors.
 *
 * Used to build the BCH generator polynomial: the LCM of the minimal
 * polynomials of alpha, alpha^3, ..., alpha^(2t-1), and to run the
 * encoder's polynomial division (systematic encoding computes
 * data(x) * x^(n-k) mod g(x)).
 */

#ifndef FLASHCACHE_GF_GF2_POLY_HH
#define FLASHCACHE_GF_GF2_POLY_HH

#include <cstdint>
#include <vector>

namespace flashcache {

class GaloisField;

/**
 * A polynomial over GF(2); coefficient i lives in bit (i % 64) of
 * word (i / 64).
 */
class Gf2Poly
{
  public:
    /** The zero polynomial. */
    Gf2Poly() = default;

    /** Monomial x^deg (or zero when bit set to false). */
    static Gf2Poly monomial(std::size_t deg);

    bool isZero() const { return words_.empty(); }

    /** Degree; -1 for the zero polynomial. */
    long degree() const;

    /** Coefficient of x^i. */
    bool coeff(std::size_t i) const;

    /** Set coefficient of x^i. */
    void setCoeff(std::size_t i, bool v);

    /** Polynomial addition (XOR). */
    Gf2Poly operator+(const Gf2Poly& o) const;

    /** Polynomial multiplication. */
    Gf2Poly operator*(const Gf2Poly& o) const;

    /** Remainder of this / divisor. @pre !divisor.isZero() */
    Gf2Poly mod(const Gf2Poly& divisor) const;

    bool operator==(const Gf2Poly& o) const { return words_ == o.words_; }

  private:
    void trim();

    std::vector<std::uint64_t> words_;
};

/**
 * Minimal polynomial over GF(2) of gf's element alpha^power.
 *
 * Computed as the product over the conjugacy class
 * {alpha^(power * 2^j)} of (x - root).
 */
Gf2Poly minimalPolynomial(const GaloisField& gf, std::uint32_t power);

} // namespace flashcache

#endif // FLASHCACHE_GF_GF2_POLY_HH
