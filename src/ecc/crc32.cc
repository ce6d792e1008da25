#include "ecc/crc32.hh"

#include <array>
#include <cstring>

#include "ecc/clmul.hh"

namespace flashcache {

namespace {

/**
 * Slicing-by-8 tables: tables[0] is the classic byte-wise table;
 * tables[k][b] extends it so that eight input bytes can be folded
 * into the CRC with eight independent lookups per 64-bit word.
 */
struct Crc32Tables
{
    std::array<std::array<std::uint32_t, 256>, 8> t;

    Crc32Tables()
    {
        for (std::uint32_t i = 0; i < 256; ++i) {
            std::uint32_t c = i;
            for (int k = 0; k < 8; ++k)
                c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
            t[0][i] = c;
        }
        for (std::uint32_t i = 0; i < 256; ++i) {
            std::uint32_t c = t[0][i];
            for (int k = 1; k < 8; ++k) {
                c = t[0][c & 0xFF] ^ (c >> 8);
                t[k][i] = c;
            }
        }
    }
};

const Crc32Tables& tables()
{
    static const Crc32Tables t;
    return t;
}

/**
 * Slicing-by-8 over a raw (not inverted) CRC state. The two 32-bit
 * halves of each 8-byte step are assembled byte-wise, which keeps the
 * code endian-independent; the compiler turns each into a single load
 * on little-endian targets.
 */
std::uint32_t
sliceBy8(std::uint32_t crc, const std::uint8_t* data, std::size_t len)
{
    const auto& t = tables().t;
    while (len >= 8) {
        std::uint32_t lo;
        std::uint32_t hi;
        std::memcpy(&lo, data, 4);
        std::memcpy(&hi, data + 4, 4);
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
        lo = __builtin_bswap32(lo);
        hi = __builtin_bswap32(hi);
#endif
        lo ^= crc;
        crc = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^
              t[5][(lo >> 16) & 0xFF] ^ t[4][lo >> 24] ^
              t[3][hi & 0xFF] ^ t[2][(hi >> 8) & 0xFF] ^
              t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
        data += 8;
        len -= 8;
    }
    while (len--) {
        crc = t[0][(crc ^ *data++) & 0xFF] ^ (crc >> 8);
    }
    return crc;
}

#if FLASHCACHE_HAVE_CLMUL_KERNELS
/**
 * Reflected-domain fold key: x^e mod P (P = 0x104C11DB7) bit-reflected
 * and shifted up one bit, the form of the Intel paper's constants.
 */
constexpr std::uint64_t
foldKey(unsigned e)
{
    std::uint32_t r = 1;
    for (unsigned i = 0; i < e; ++i)
        r = (r << 1) ^ ((r >> 31) ? 0x04C11DB7u : 0u);
    std::uint64_t reflected = 0;
    for (unsigned i = 0; i < 32; ++i)
        reflected |= static_cast<std::uint64_t>((r >> i) & 1) << (31 - i);
    return reflected << 1;
}

/** The keys that move a 128-bit lane D bits forward. */
struct LaneKeys
{
    std::uint64_t lo; ///< for the low qword: key(D + 32)
    std::uint64_t hi; ///< for the high qword: key(D - 32)
};

constexpr LaneKeys
laneKeys(unsigned d)
{
    return {foldKey(d + 32), foldKey(d - 32)};
}

constexpr LaneKeys k128 = laneKeys(128);
constexpr LaneKeys k256 = laneKeys(256);
constexpr LaneKeys k384 = laneKeys(384);
constexpr LaneKeys k512 = laneKeys(512);
constexpr LaneKeys k2048 = laneKeys(2048);
constexpr std::uint64_t k64 = foldKey(64);

// The formula reproduces the published constants k1..k5 (Linux's
// crc32-pclmul_asm.S uses the same ones).
static_assert(k512.lo == 0x0154442bd4 && k512.hi == 0x01c6e41596 &&
              k128.lo == 0x01751997d0 && k128.hi == 0x00ccaa009e &&
              k64 == 0x0163cd6124);

/**
 * The 128-bit tier's tail: fold the remaining 16-byte blocks (len a
 * multiple of 16) into lane x 128 bits per step (k3, k4), then
 * 128 -> 64 bits (k4), 64 -> 32 bits (k5) and a Barrett step with
 * P = 0x1DB710641 and u = floor(x^64 / P).
 */
FLASHCACHE_CLMUL_TARGET inline std::uint32_t
foldTail(__m128i x, const std::uint8_t* data, std::size_t len)
{
    using clmul::fold;
    using clmul::load;
    const __m128i k3k4 = _mm_set_epi64x(k128.hi, k128.lo);
    const __m128i k5 = _mm_set_epi64x(0, k64);
    const __m128i poly = _mm_set_epi64x(0x01f7011641, 0x01db710641);
    const __m128i mask32 = _mm_setr_epi32(-1, 0, -1, 0);

    for (; len >= 16; data += 16, len -= 16)
        x = _mm_xor_si128(fold(x, k3k4), load(data));

    // 128 -> 64 bits, then 64 -> 32.
    x = _mm_xor_si128(_mm_srli_si128(x, 8),
                      _mm_clmulepi64_si128(x, k3k4, 0x10));
    x = _mm_xor_si128(_mm_srli_si128(x, 4),
                      _mm_clmulepi64_si128(_mm_and_si128(x, mask32), k5,
                                           0x00));
    // Barrett: q = lo32(x) * u (low 32 bits), crc = x ^ q * P.
    __m128i q = _mm_clmulepi64_si128(_mm_and_si128(x, mask32), poly, 0x10);
    q = _mm_clmulepi64_si128(_mm_and_si128(q, mask32), poly, 0x00);
    return static_cast<std::uint32_t>(
        _mm_extract_epi32(_mm_xor_si128(x, q), 1));
}

/**
 * PCLMULQDQ fold over a raw CRC state, len a nonzero multiple of 16.
 * In the reflected domain the low qword of a lane holds the earlier,
 * higher-degree bits. Four lanes fold 512 bits per step (k1, k2), then
 * merge into one for foldTail.
 */
FLASHCACHE_CLMUL_TARGET std::uint32_t
foldClmul(std::uint32_t crc, const std::uint8_t* data, std::size_t len)
{
    using clmul::fold;
    using clmul::load;
    const __m128i k1k2 = _mm_set_epi64x(k512.hi, k512.lo);
    const __m128i k3k4 = _mm_set_epi64x(k128.hi, k128.lo);

    __m128i x = _mm_xor_si128(load(data),
                              _mm_cvtsi32_si128(static_cast<int>(crc)));
    if (len >= 64) {
        __m128i x1 = load(data + 16);
        __m128i x2 = load(data + 32);
        __m128i x3 = load(data + 48);
        data += 64;
        len -= 64;
        for (; len >= 64; data += 64, len -= 64) {
            x = _mm_xor_si128(fold(x, k1k2), load(data));
            x1 = _mm_xor_si128(fold(x1, k1k2), load(data + 16));
            x2 = _mm_xor_si128(fold(x2, k1k2), load(data + 32));
            x3 = _mm_xor_si128(fold(x3, k1k2), load(data + 48));
        }
        x = _mm_xor_si128(fold(x, k3k4), x1);
        x = _mm_xor_si128(fold(x, k3k4), x2);
        x = _mm_xor_si128(fold(x, k3k4), x3);
    } else {
        data += 16;
        len -= 16;
    }
    return foldTail(x, data, len);
}

/**
 * VPCLMULQDQ fold over a raw CRC state, len a multiple of 16 and at
 * least 256. Four zmm accumulators (16 lanes) fold 2048 bits per
 * step, merge into one zmm with 512-bit folds, which keeps folding
 * 512 bits per step; lanes 0..2 of it then move 384, 256 and 128 bits
 * onto lane 3, which goes to foldTail.
 */
FLASHCACHE_WIDE_CLMUL_TARGET std::uint32_t
foldWide(std::uint32_t crc, const std::uint8_t* data, std::size_t len)
{
    using clmul::fold4;
    using clmul::key4;
    using clmul::load4;
    const __m512i k2048x4 = key4(k2048.lo, k2048.hi);
    const __m512i k512x4 = key4(k512.lo, k512.hi);
    const __m512i klanes = _mm512_set_epi64(
        0, 0, k128.hi, k128.lo, k256.hi, k256.lo, k384.hi, k384.lo);

    __m512i x0 = _mm512_xor_si512(
        load4(data),
        _mm512_zextsi128_si512(_mm_cvtsi32_si128(static_cast<int>(crc))));
    __m512i x1 = load4(data + 64);
    __m512i x2 = load4(data + 128);
    __m512i x3 = load4(data + 192);
    data += 256;
    len -= 256;
    for (; len >= 256; data += 256, len -= 256) {
        x0 = fold4(x0, k2048x4, load4(data));
        x1 = fold4(x1, k2048x4, load4(data + 64));
        x2 = fold4(x2, k2048x4, load4(data + 128));
        x3 = fold4(x3, k2048x4, load4(data + 192));
    }
    x0 = fold4(x0, k512x4, x1);
    x0 = fold4(x0, k512x4, x2);
    x0 = fold4(x0, k512x4, x3);
    for (; len >= 64; data += 64, len -= 64)
        x0 = fold4(x0, k512x4, load4(data));
    return foldTail(clmul::foldLanes(x0, klanes, 3), data, len);
}
#endif

} // namespace

bool
haveClmul()
{
#if FLASHCACHE_HAVE_CLMUL_KERNELS
    static const bool have = [] {
        __builtin_cpu_init();
        return __builtin_cpu_supports("pclmul") &&
               __builtin_cpu_supports("sse4.1");
    }();
    return have;
#else
    return false;
#endif
}

bool
haveWideClmul()
{
#if FLASHCACHE_HAVE_CLMUL_KERNELS
    // __builtin_cpu_supports reports AVX-512 only when the OS saves
    // the zmm state (XCR0), so this also covers OS support.
    static const bool have = haveClmul() &&
                             __builtin_cpu_supports("avx512f") &&
                             __builtin_cpu_supports("vpclmulqdq");
    return have;
#else
    return false;
#endif
}

std::uint32_t
crc32UpdateTable(std::uint32_t crc, const std::uint8_t* data,
                 std::size_t len)
{
    return ~sliceBy8(~crc, data, len);
}

std::uint32_t
crc32UpdateClmul(std::uint32_t crc, const std::uint8_t* data,
                 std::size_t len)
{
    crc = ~crc;
#if FLASHCACHE_HAVE_CLMUL_KERNELS
    if (len >= 16) {
        const std::size_t folded = len & ~std::size_t{15};
        crc = foldClmul(crc, data, folded);
        data += folded;
        len -= folded;
    }
#endif
    return ~sliceBy8(crc, data, len);
}

std::uint32_t
crc32UpdateWide(std::uint32_t crc, const std::uint8_t* data,
                std::size_t len)
{
#if FLASHCACHE_HAVE_CLMUL_KERNELS
    if (len >= 256) {
        const std::size_t folded = len & ~std::size_t{15};
        return ~sliceBy8(foldWide(~crc, data, folded), data + folded,
                         len - folded);
    }
#endif
    return crc32UpdateClmul(crc, data, len);
}

std::uint32_t
crc32Update(std::uint32_t crc, const std::uint8_t* data, std::size_t len)
{
    if (haveWideClmul())
        return crc32UpdateWide(crc, data, len);
    return haveClmul() ? crc32UpdateClmul(crc, data, len)
                       : crc32UpdateTable(crc, data, len);
}

std::uint32_t
crc32(const std::uint8_t* data, std::size_t len)
{
    return crc32Update(0, data, len);
}

} // namespace flashcache
