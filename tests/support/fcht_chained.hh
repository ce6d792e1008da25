/**
 * @file
 * The seed chained FCHT (fixed bucket vector of entry chains),
 * retained verbatim as the differential-test oracle for the
 * open-addressed Fcht, its bench baseline and the table behind the
 * section 3.1 indexable-entry sweep in micro_cache.
 */

#ifndef FLASHCACHE_TESTS_SUPPORT_FCHT_CHAINED_HH
#define FLASHCACHE_TESTS_SUPPORT_FCHT_CHAINED_HH

#include <cstdint>
#include <vector>

#include "util/types.hh"

namespace flashcache {

class FchtChained
{
  public:
    static constexpr std::uint64_t npos = ~static_cast<std::uint64_t>(0);

    explicit FchtChained(std::size_t buckets = 4096);

    std::uint64_t find(Lba lba) const;
    void insert(Lba lba, std::uint64_t page_id);
    bool erase(Lba lba);
    void update(Lba lba, std::uint64_t page_id);

    std::size_t size() const { return size_; }
    std::size_t buckets() const { return buckets_.size(); }
    double avgProbeLength() const;

  private:
    struct Entry
    {
        Lba lba;
        std::uint64_t pageId;
    };

    std::size_t
    bucketOf(Lba lba) const
    {
        return static_cast<std::size_t>(
            (lba * 0x9E3779B97F4A7C15ull) >> 32) % buckets_.size();
    }

    std::vector<std::vector<Entry>> buckets_;
    std::size_t size_ = 0;
    mutable std::uint64_t lookups_ = 0;
    mutable std::uint64_t probes_ = 0;
};

} // namespace flashcache

#endif // FLASHCACHE_TESTS_SUPPORT_FCHT_CHAINED_HH
