/**
 * @file
 * CRC-32 (IEEE 802.3) checksum.
 *
 * The paper pairs the BCH corrector with a CRC32 detector (section
 * 4.1.2): BCH can silently miscorrect when more than t errors occur,
 * and the CRC catches those false positives. 4 of the page's 64 spare
 * bytes hold this checksum.
 *
 * crc32/crc32Update pick a kernel at run time. On an x86-64 host with
 * AVX-512F and VPCLMULQDQ (haveWideClmul() in ecc/clmul.hh) a run of
 * 256 bytes or more is folded 256 bytes per step in zmm registers. On
 * a host with PCLMULQDQ (haveClmul()), and for shorter runs there,
 * every run of 16 bytes or more is folded with 128-bit carry-less
 * multiplies, 64 bytes per step. The < 16-byte tail goes through
 * slicing-by-8 (eight 256-entry tables, 8 input bytes folded per
 * step), which any other host runs throughout. Every tier is callable
 * directly for the differential tests and micro_bch, which check them
 * against the classic one-table byte-wise CRC in
 * tests/support/crc32_bytewise.hh.
 */

#ifndef FLASHCACHE_ECC_CRC32_HH
#define FLASHCACHE_ECC_CRC32_HH

#include <cstddef>
#include <cstdint>

namespace flashcache {

/** CRC-32 of a buffer (reflected polynomial 0xEDB88320, init ~0). */
std::uint32_t crc32(const std::uint8_t* data, std::size_t len);

/** Incrementally extend a CRC-32 with more data. */
std::uint32_t crc32Update(std::uint32_t crc, const std::uint8_t* data,
                          std::size_t len);

/** crc32Update through slicing-by-8 only, on any host. */
std::uint32_t crc32UpdateTable(std::uint32_t crc, const std::uint8_t* data,
                               std::size_t len);

/**
 * crc32Update through the PCLMULQDQ fold (slicing-by-8 for the
 * < 16-byte tail). @pre haveClmul(); a build without the CLMUL
 * kernels runs crc32UpdateTable instead.
 */
std::uint32_t crc32UpdateClmul(std::uint32_t crc, const std::uint8_t* data,
                               std::size_t len);

/**
 * crc32Update through the VPCLMULQDQ fold for len >= 256, else
 * through crc32UpdateClmul. @pre haveWideClmul(); a build without the
 * CLMUL kernels runs crc32UpdateTable instead.
 */
std::uint32_t crc32UpdateWide(std::uint32_t crc, const std::uint8_t* data,
                              std::size_t len);

} // namespace flashcache

#endif // FLASHCACHE_ECC_CRC32_HH
