#include "support/crc32_bytewise.hh"

#include <array>

namespace flashcache {

namespace {

const std::array<std::uint32_t, 256>&
bytewiseTable()
{
    static const std::array<std::uint32_t, 256> t = [] {
        std::array<std::uint32_t, 256> out{};
        for (std::uint32_t i = 0; i < 256; ++i) {
            std::uint32_t c = i;
            for (int k = 0; k < 8; ++k)
                c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
            out[i] = c;
        }
        return out;
    }();
    return t;
}

} // namespace

std::uint32_t
crc32BytewiseUpdate(std::uint32_t crc, const std::uint8_t* data,
                    std::size_t len)
{
    const auto& t = bytewiseTable();
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
