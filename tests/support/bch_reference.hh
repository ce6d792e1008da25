/**
 * @file
 * The original bit-serial BCH pipeline, kept as the oracle for the
 * differential tests (tests/bch_differential_test.cc) and
 * micro_bch's baseline (the software decode of section 4.1.1):
 * Gf2Poly long-division encode, per-set-bit syndromes, allocating
 * Berlekamp-Massey and a full Chien sweep with per-position GF
 * multiplies. Slow, and it allocates; it reads only the code's
 * public shape (field, generator, t, data and parity lengths).
 */

#ifndef FLASHCACHE_TESTS_SUPPORT_BCH_REFERENCE_HH
#define FLASHCACHE_TESTS_SUPPORT_BCH_REFERENCE_HH

#include <cstdint>
#include <vector>

#include "ecc/bch.hh"

namespace flashcache {

/** Bit-serial systematic encode: parity = data(x) x^r mod g(x). */
void encodeReference(const BchCode& code, const std::uint8_t* data,
                     std::uint8_t* parity);

/** Bit-serial decode, correcting data and parity in place. */
BchDecodeResult decodeReference(const BchCode& code, std::uint8_t* data,
                                std::uint8_t* parity);

/** The 2t syndromes S_j = r(alpha^j), summed over set bits only. */
std::vector<GaloisField::Elem>
syndromesReference(const BchCode& code, const std::uint8_t* data,
                   const std::uint8_t* parity);

} // namespace flashcache

#endif // FLASHCACHE_TESTS_SUPPORT_BCH_REFERENCE_HH
