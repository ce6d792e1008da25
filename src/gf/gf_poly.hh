/**
 * @file
 * Polynomials with coefficients in GF(2^m).
 *
 * The BCH decoder manipulates these: the error-locator polynomial
 * found by Berlekamp-Massey and its formal derivative used by the
 * Chien search / Forney stage.
 */

#ifndef FLASHCACHE_GF_GF_POLY_HH
#define FLASHCACHE_GF_GF_POLY_HH

#include <cstdint>
#include <vector>

#include "gf/gf2m.hh"

namespace flashcache {

/**
 * Dense polynomial over GF(2^m), low-order coefficient first.
 *
 * Holds a reference to its field; all operands of a binary operation
 * must share the field.
 */
class GfPoly
{
  public:
    using Elem = GaloisField::Elem;

    /** The zero polynomial over gf. */
    explicit GfPoly(const GaloisField& gf);

    /** From explicit coefficients, low order first. */
    GfPoly(const GaloisField& gf, std::vector<Elem> coeffs);

    const GaloisField& field() const { return *gf_; }

    /** Degree; -1 for the zero polynomial. */
    long degree() const;

    bool isZero() const { return degree() < 0; }

    /** Coefficient of x^i (0 beyond the stored degree). */
    Elem coeff(std::size_t i) const;

    GfPoly operator*(const GfPoly& o) const;

    /** Multiply every coefficient by the scalar s. */
    GfPoly scale(Elem s) const;

    /** Multiply by x^k. */
    GfPoly shift(std::size_t k) const;

    /** Evaluate at beta by Horner's rule. */
    Elem eval(Elem beta) const;

    /**
     * Formal derivative; in characteristic 2 the even-power terms
     * vanish and odd powers copy down.
     */
    GfPoly derivative() const;

    bool operator==(const GfPoly& o) const { return coeffs_ == o.coeffs_; }

  private:
    void trim();

    const GaloisField* gf_;
    std::vector<Elem> coeffs_;
};

} // namespace flashcache

#endif // FLASHCACHE_GF_GF_POLY_HH
