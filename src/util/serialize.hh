/**
 * @file
 * Minimal binary serialization helpers for persisting simulator
 * state (the section 3 tables are "read from the hard disk drive and
 * stored in DRAM at run-time"). Fixed little-endian-style encoding
 * of scalar PODs, length-prefixed vectors and tables of fixed-size
 * records; loaders fatal() on malformed input rather than returning
 * garbage.
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

/** Most bytes the record codec below moves per stream call. */
inline constexpr std::size_t kRecordChunkBytes = std::size_t{64} << 10;

/** Cursor over one fixed-size record in the record codec's buffer:
 *  fields are encoded or decoded in order with memcpy. */
class RecordCursor
{
  public:
    explicit RecordCursor(std::uint8_t* at) : at_(at) {}

    template <typename T>
    T
    get()
    {
        static_assert(std::is_trivially_copyable_v<T>);
        T v;
        std::memcpy(&v, at_, sizeof(v));
        at_ += sizeof(v);
        return v;
    }

    template <typename T>
    void
    put(T v)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        std::memcpy(at_, &v, sizeof(v));
        at_ += sizeof(v);
    }

  private:
    std::uint8_t* at_;
};

/**
 * Table codec: `count` records of `record_bytes` each, moved through
 * one buffer of at most kRecordChunkBytes that holds a whole number
 * of records. A table then costs one stream call per chunk rather
 * than one per field, and the transient memory does not grow with the
 * table. getRecords hands record i to decode(cursor, i) in order and
 * fatal()s on truncated input; putRecords has encode(cursor, i) fill
 * record i. Each callback must move exactly record_bytes bytes.
 */
template <typename Decode>
void
getRecords(std::istream& is, std::size_t record_bytes, std::uint64_t count,
           Decode&& decode)
{
    const std::uint64_t per_chunk = kRecordChunkBytes / record_bytes;
    std::vector<std::uint8_t> buf(
        static_cast<std::size_t>(std::min(count, per_chunk)) *
        record_bytes);
    for (std::uint64_t i = 0; i < count;) {
        const auto n =
            static_cast<std::size_t>(std::min(count - i, per_chunk));
        getBytes(is, buf.data(), n * record_bytes);
        for (std::size_t k = 0; k < n; ++k, ++i) {
            RecordCursor cur(buf.data() + k * record_bytes);
            decode(cur, i);
        }
    }
}

template <typename Encode>
void
putRecords(std::ostream& os, std::size_t record_bytes, std::uint64_t count,
           Encode&& encode)
{
    const std::uint64_t per_chunk = kRecordChunkBytes / record_bytes;
    std::vector<std::uint8_t> buf(
        static_cast<std::size_t>(std::min(count, per_chunk)) *
        record_bytes);
    for (std::uint64_t i = 0; i < count;) {
        const auto n =
            static_cast<std::size_t>(std::min(count - i, per_chunk));
        for (std::size_t k = 0; k < n; ++k, ++i) {
            RecordCursor cur(buf.data() + k * record_bytes);
            encode(cur, i);
        }
        os.write(reinterpret_cast<const char*>(buf.data()),
                 static_cast<std::streamsize>(n * record_bytes));
    }
}

/** Write a length-prefixed vector of scalars. */
template <typename T>
void
putVector(std::ostream& os, const std::vector<T>& v)
{
    putScalar<std::uint64_t>(os, v.size());
    putRecords(os, sizeof(T), v.size(),
               [&v](RecordCursor& r, std::uint64_t i) { r.put(v[i]); });
}

/**
 * Read a length-prefixed vector of scalars. The length prefix is
 * untrusted: the vector grows only as records are read, so a prefix
 * the file does not back fails as a truncation having allocated at
 * most about twice the bytes the file holds.
 */
template <typename T>
std::vector<T>
getVector(std::istream& is)
{
    const auto n = getScalar<std::uint64_t>(is);
    if (n > (1ull << 32))
        fatal("implausible vector length in state file");
    std::vector<T> v;
    getRecords(is, sizeof(T), n, [&v](RecordCursor& r, std::uint64_t) {
        v.push_back(r.get<T>());
    });
    return v;
}

/** Write a fixed 8-byte magic tag. */
void putMagic(std::ostream& os, const char (&magic)[9]);

/** Read and verify an 8-byte magic tag; fatal on mismatch. */
void expectMagic(std::istream& is, const char (&magic)[9]);

} // namespace flashcache

#endif // FLASHCACHE_UTIL_SERIALIZE_HH
