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
 * Two tiers share that scheme. The 128-bit tier (PCLMULQDQ, SSE4.1)
 * folds one xmm lane per instruction. The wide tier (AVX-512F,
 * VPCLMULQDQ) folds four lanes per instruction in a zmm register and
 * hands its last lane to the 128-bit tier's tail.
 *
 * The kernels are compiled only on x86-64 with GCC or Clang, as
 * functions carrying FLASHCACHE_CLMUL_TARGET or
 * FLASHCACHE_WIDE_CLMUL_TARGET, so the global compile flags stay
 * portable; haveClmul() and haveWideClmul() choose them at run time.
 * Every helper called from such a function must carry the same
 * attribute (or a subset of it) to inline; lambdas do not inherit it.
 */

#ifndef FLASHCACHE_ECC_CLMUL_HH
#define FLASHCACHE_ECC_CLMUL_HH

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define FLASHCACHE_HAVE_CLMUL_KERNELS 1
#include <immintrin.h>
#define FLASHCACHE_CLMUL_TARGET __attribute__((target("pclmul,sse4.1")))
#define FLASHCACHE_WIDE_CLMUL_TARGET \
    __attribute__((target("avx512f,vpclmulqdq,pclmul,sse4.1")))
#else
#define FLASHCACHE_HAVE_CLMUL_KERNELS 0
#endif

namespace flashcache {

/**
 * True when this build has the CLMUL kernels and the host CPU runs
 * them (PCLMULQDQ and SSE4.1). Checked once, then cached.
 */
bool haveClmul();

/**
 * True when this build has the CLMUL kernels and the host CPU runs
 * the wide tier too (AVX-512F and VPCLMULQDQ, with the OS saving zmm
 * state). Implies haveClmul(). Checked once, then cached.
 */
bool haveWideClmul();

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

/** fold() on four 128-bit lanes at once, XORed with d. */
FLASHCACHE_WIDE_CLMUL_TARGET inline __m512i
fold4(__m512i x, __m512i k, __m512i d)
{
    // 0x96: a ^ b ^ c in one vpternlogq.
    return _mm512_ternarylogic_epi64(_mm512_clmulepi64_epi128(x, k, 0x00),
                                     _mm512_clmulepi64_epi128(x, k, 0x11),
                                     d, 0x96);
}

/** Unaligned 64-byte load. */
FLASHCACHE_WIDE_CLMUL_TARGET inline __m512i
load4(const unsigned char* p)
{
    return _mm512_loadu_si512(p);
}

/**
 * The same fold key for all four lanes: {lo, hi} repeated, lo in the
 * even qwords.
 */
FLASHCACHE_WIDE_CLMUL_TARGET inline __m512i
key4(long long lo, long long hi)
{
    return _mm512_set_epi64(hi, lo, hi, lo, hi, lo, hi, lo);
}

/**
 * Fold four lanes into one: every lane of x is folded with its own
 * key from k, except `keep` (0..3), which passes through unchanged;
 * the four results are XORed. With k holding x^(128 d) keys for a
 * lane d lanes away from `keep`, this moves the whole 512-bit value
 * into the 128 bits of lane `keep`.
 */
FLASHCACHE_WIDE_CLMUL_TARGET inline __m128i
foldLanes(__m512i x, __m512i k, unsigned keep)
{
    const auto keep_mask = static_cast<__mmask8>(3u << (2 * keep));
    const __m512i f = _mm512_mask_blend_epi64(
        keep_mask,
        _mm512_xor_si512(_mm512_clmulepi64_epi128(x, k, 0x00),
                         _mm512_clmulepi64_epi128(x, k, 0x11)),
        x);
    // The zero-masking extracts with an all-ones mask are plain
    // extracts; GCC 12 flags the unmasked ones' undefined pass-through
    // operand under -Wuninitialized.
    const __m256i h =
        _mm256_xor_si256(_mm512_maskz_extracti64x4_epi64(0xFF, f, 0),
                         _mm512_maskz_extracti64x4_epi64(0xFF, f, 1));
    return _mm_xor_si128(_mm256_castsi256_si128(h),
                         _mm256_extracti128_si256(h, 1));
}

} // namespace clmul
#endif

} // namespace flashcache

#endif // FLASHCACHE_ECC_CLMUL_HH
