/**
 * @file
 * Carry-less-multiply (PCLMULQDQ) support shared by the CRC32 and BCH
 * remainder kernels.
 *
 * Both page passes reduce a long GF(2) polynomial modulo a short one.
 * With PCLMULQDQ they fold 128-bit lanes: a lane H x^64 + L moved k
 * bits up is congruent to H (x^(k+64) mod P) + L (x^k mod P), two
 * 64x64 -> 128-bit carry-less products (Gopal et al., "Fast CRC
 * Computation for Generic Polynomials Using PCLMULQDQ", Intel 2009).
 *
 * The kernels are compiled only on x86-64 with GCC or Clang, as
 * functions carrying FLASHCACHE_CLMUL_TARGET, so the global compile
 * flags stay portable; haveClmul() chooses them at run time. Every
 * helper called from such a function must carry the same attribute
 * to inline (lambdas do not inherit it).
 */

#ifndef FLASHCACHE_ECC_CLMUL_HH
#define FLASHCACHE_ECC_CLMUL_HH

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define FLASHCACHE_HAVE_CLMUL_KERNELS 1
#include <immintrin.h>
#define FLASHCACHE_CLMUL_TARGET __attribute__((target("pclmul,sse4.1")))
#else
#define FLASHCACHE_HAVE_CLMUL_KERNELS 0
#endif

namespace flashcache {

/**
 * True when this build has the CLMUL kernels and the host CPU runs
 * them (PCLMULQDQ and SSE4.1). Checked once, then cached.
 */
bool haveClmul();

#if FLASHCACHE_HAVE_CLMUL_KERNELS
namespace clmul {

/**
 * One lane fold: lo(x) * lo(k) ^ hi(x) * hi(k). With k = {x^K mod P,
 * x^(K+64) mod P} this moves the 128-bit lane x up by K bits mod P.
 */
FLASHCACHE_CLMUL_TARGET inline __m128i
fold(__m128i x, __m128i k)
{
    return _mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00),
                         _mm_clmulepi64_si128(x, k, 0x11));
}

/** Unaligned 16-byte load. */
FLASHCACHE_CLMUL_TARGET inline __m128i
load(const unsigned char* p)
{
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

} // namespace clmul
#endif

} // namespace flashcache

#endif // FLASHCACHE_ECC_CLMUL_HH
