/**
 * @file
 * Minimal binary serialization helpers for persisting simulator
 * state (the section 3 tables are "read from the hard disk drive and
 * stored in DRAM at run-time"). Fixed little-endian-style encoding
 * of scalar PODs plus length-prefixed vectors; loaders fatal() on
 * malformed input rather than returning garbage.
 */

#ifndef FLASHCACHE_UTIL_SERIALIZE_HH
#define FLASHCACHE_UTIL_SERIALIZE_HH

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <istream>
#include <ostream>
#include <string>
#include <type_traits>
#include <vector>

#include "util/log.hh"

namespace flashcache {

/** Write one scalar. */
template <typename T>
void
putScalar(std::ostream& os, T v)
{
    static_assert(std::is_trivially_copyable_v<T>);
    os.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

/** Read n raw bytes into dst; fatal on truncated input. */
inline void
getBytes(std::istream& is, void* dst, std::size_t n)
{
    is.read(static_cast<char*>(dst), static_cast<std::streamsize>(n));
    if (!is)
        fatal("truncated state file");
}

/** Read one scalar; fatal on truncated input. */
template <typename T>
T
getScalar(std::istream& is)
{
    static_assert(std::is_trivially_copyable_v<T>);
    T v;
    getBytes(is, &v, sizeof(v));
    return v;
}

/** Write a length-prefixed vector of scalars. */
template <typename T>
void
putVector(std::ostream& os, const std::vector<T>& v)
{
    putScalar<std::uint64_t>(os, v.size());
    for (const T& x : v)
        putScalar(os, x);
}

/**
 * Read a length-prefixed vector of scalars. The length prefix is
 * untrusted: the body is read in chunks of at most 64 KiB, so a
 * prefix the file does not back fails as a truncation having
 * allocated at most about twice the bytes the file holds.
 */
template <typename T>
std::vector<T>
getVector(std::istream& is)
{
    static_assert(std::is_trivially_copyable_v<T>);
    constexpr std::uint64_t kChunk = (std::uint64_t{64} << 10) / sizeof(T);
    const auto n = getScalar<std::uint64_t>(is);
    if (n > (1ull << 32))
        fatal("implausible vector length in state file");
    std::vector<T> v;
    while (v.size() < n) {
        const std::size_t have = v.size();
        const auto take = static_cast<std::size_t>(
            std::min<std::uint64_t>(n - have, kChunk));
        v.resize(have + take);
        getBytes(is, v.data() + have, take * sizeof(T));
    }
    return v;
}

/** Write a fixed 8-byte magic tag. */
void putMagic(std::ostream& os, const char (&magic)[9]);

/** Read and verify an 8-byte magic tag; fatal on mismatch. */
void expectMagic(std::istream& is, const char (&magic)[9]);

} // namespace flashcache

#endif // FLASHCACHE_UTIL_SERIALIZE_HH
