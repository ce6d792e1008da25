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
 * PCLMULQDQ fold over a raw CRC state, len a nonzero multiple of 16.
 * In the reflected domain the low qword of a lane holds the earlier,
 * higher-degree bits. Four lanes fold 512 bits per step (k1, k2), one
 * lane 128 bits per step (k3, k4); then 128 -> 64 bits (k4), 64 -> 32
 * bits (k5) and a Barrett step with P = 0x1DB710641 and
 * u = floor(x^64 / P). These are the standard constants of the Intel
 * paper, also used by Linux's crc32-pclmul_asm.S.
 */
FLASHCACHE_CLMUL_TARGET std::uint32_t
foldClmul(std::uint32_t crc, const std::uint8_t* data, std::size_t len)
{
    using clmul::fold;
    using clmul::load;
    const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
    const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
    const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124);
    const __m128i poly = _mm_set_epi64x(0x01f7011641, 0x01db710641);
    const __m128i mask32 = _mm_setr_epi32(-1, 0, -1, 0);

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
crc32Update(std::uint32_t crc, const std::uint8_t* data, std::size_t len)
{
    return haveClmul() ? crc32UpdateClmul(crc, data, len)
                       : crc32UpdateTable(crc, data, len);
}

std::uint32_t
crc32(const std::uint8_t* data, std::size_t len)
{
    return crc32Update(0, data, len);
}

std::uint32_t
crc32BytewiseUpdate(std::uint32_t crc, const std::uint8_t* data,
                    std::size_t len)
{
    const auto& t = tables().t[0];
    crc = ~crc;
    for (std::size_t i = 0; i < len; ++i)
        crc = t[(crc ^ data[i]) & 0xFF] ^ (crc >> 8);
    return ~crc;
}

std::uint32_t
crc32Bytewise(const std::uint8_t* data, std::size_t len)
{
    return crc32BytewiseUpdate(0, data, len);
}

} // namespace flashcache
