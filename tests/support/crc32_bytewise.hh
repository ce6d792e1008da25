/**
 * @file
 * The classic one-table, byte-at-a-time CRC-32 (reflected polynomial
 * 0xEDB88320, init ~0): the oracle every crc32Update kernel tier is
 * checked against, and micro_bch's baseline. Its table is built here,
 * independently of the slicing-by-8 tables in ecc/crc32.cc.
 */

#ifndef FLASHCACHE_TESTS_SUPPORT_CRC32_BYTEWISE_HH
#define FLASHCACHE_TESTS_SUPPORT_CRC32_BYTEWISE_HH

#include <cstddef>
#include <cstdint>

namespace flashcache {

/** One-table byte-at-a-time reference implementation. */
std::uint32_t crc32Bytewise(const std::uint8_t* data, std::size_t len);

/** Incremental form of the byte-wise reference. */
std::uint32_t crc32BytewiseUpdate(std::uint32_t crc,
                                  const std::uint8_t* data,
                                  std::size_t len);

} // namespace flashcache

#endif // FLASHCACHE_TESTS_SUPPORT_CRC32_BYTEWISE_HH
