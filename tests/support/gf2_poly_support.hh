/**
 * @file
 * Test helpers for Gf2Poly: build one from a bit mask, and evaluate
 * one at a point of GF(2^m). The codec needs neither; the tests use
 * them to write known polynomials and to check roots.
 */

#ifndef FLASHCACHE_TESTS_SUPPORT_GF2_POLY_SUPPORT_HH
#define FLASHCACHE_TESTS_SUPPORT_GF2_POLY_SUPPORT_HH

#include <cstdint>

#include "gf/gf2_poly.hh"
#include "gf/gf2m.hh"

namespace flashcache {

/** The polynomial whose coefficient i is bit i of mask. */
Gf2Poly fromMask(std::uint64_t mask);

/** p(beta) in gf, by Horner's rule over gf.mul. */
GaloisField::Elem eval(const Gf2Poly& p, const GaloisField& gf,
                       GaloisField::Elem beta);

} // namespace flashcache

#endif // FLASHCACHE_TESTS_SUPPORT_GF2_POLY_SUPPORT_HH
