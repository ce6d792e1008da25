/**
 * @file
 * MemoryDisk: the in-memory payload disk the real-data tests and
 * micro_cache run the cache over, and pageContent(), the
 * deterministic bytes of one version of a page. The disk keeps
 * T10-DIF-style generation tags, which only FlashCache::recover()
 * reads; a test that never recovers sees a plain payload store.
 */

#ifndef FLASHCACHE_TESTS_SUPPORT_MEMORY_DISK_HH
#define FLASHCACHE_TESTS_SUPPORT_MEMORY_DISK_HH

#include <algorithm>
#include <cstring>
#include <map>
#include <vector>

#include "core/backing_store.hh"
#include "core/tables.hh"
#include "util/rng.hh"

namespace flashcache {

/** Payload bytes per page (FlashGeometry's default pageDataBytes). */
constexpr std::uint32_t kTestPageBytes = 2048;

/** In-memory disk: payloads in a map, generation tags in an FCHT,
 *  4.2 ms per access. A never-written page reads as zeroes. */
class MemoryDisk : public PayloadBackingStore
{
  public:
    Seconds read(Lba) override { return milliseconds(4.2); }
    Seconds write(Lba) override { return milliseconds(4.2); }

    Seconds
    readData(Lba lba, std::uint8_t* out) override
    {
        const auto it = pages_.find(lba);
        if (it == pages_.end())
            std::memset(out, 0, kTestPageBytes);
        else
            std::memcpy(out, it->second.data(), kTestPageBytes);
        return milliseconds(4.2);
    }

    Seconds
    writeData(Lba lba, const std::uint8_t* data) override
    {
        pages_[lba].assign(data, data + kTestPageBytes);
        return milliseconds(4.2);
    }

    Seconds
    writeTagged(Lba lba, const std::uint8_t* data, std::uint64_t seq,
                bool& failed) override
    {
        failed = false;
        if (gen_.insertOrFind(lba, seq) != Fcht::npos)
            gen_.update(lba, seq);
        maxGen_ = std::max(maxGen_, seq);
        return writeData(lba, data);
    }

    std::uint64_t
    generation(Lba lba) const override
    {
        const std::uint64_t g = gen_.find(lba);
        return g == Fcht::npos ? 0 : g;
    }

    std::uint64_t maxGeneration() const override { return maxGen_; }

    std::map<Lba, std::vector<std::uint8_t>> pages_;
    /** LBA -> generation tag, in a flat table so recovery's one
     *  lookup per surviving page stays cheap beside the payloads. */
    Fcht gen_;
    std::uint64_t maxGen_ = 0;
};

/** Deterministic page contents: a function of LBA and version.
 *  Version 0 is the never-written page: all zeroes, matching what
 *  MemoryDisk serves for unknown LBAs. */
inline std::vector<std::uint8_t>
pageContent(Lba lba, std::uint32_t version)
{
    std::vector<std::uint8_t> v(kTestPageBytes);
    if (version == 0)
        return v;
    Rng rng(lba * 2654435761u + version);
    for (auto& b : v)
        b = static_cast<std::uint8_t>(rng.uniformInt(256));
    return v;
}

} // namespace flashcache

#endif // FLASHCACHE_TESTS_SUPPORT_MEMORY_DISK_HH
