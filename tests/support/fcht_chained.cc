#include "support/fcht_chained.hh"

#include "util/log.hh"

namespace flashcache {

FchtChained::FchtChained(std::size_t buckets)
    : buckets_(buckets == 0 ? 1 : buckets)
{
}

std::uint64_t
FchtChained::find(Lba lba) const
{
    ++lookups_;
    const auto& chain = buckets_[bucketOf(lba)];
    for (const Entry& e : chain) {
        ++probes_;
        if (e.lba == lba)
            return e.pageId;
    }
    return npos;
}

void
FchtChained::insert(Lba lba, std::uint64_t page_id)
{
    auto& chain = buckets_[bucketOf(lba)];
    for (const Entry& e : chain) {
        if (e.lba == lba)
            panic("FCHT double insert for LBA");
    }
    chain.push_back({lba, page_id});
    ++size_;
}

bool
FchtChained::erase(Lba lba)
{
    auto& chain = buckets_[bucketOf(lba)];
    for (std::size_t i = 0; i < chain.size(); ++i) {
        if (chain[i].lba == lba) {
            chain[i] = chain.back();
            chain.pop_back();
            --size_;
            return true;
        }
    }
    return false;
}

void
FchtChained::update(Lba lba, std::uint64_t page_id)
{
    auto& chain = buckets_[bucketOf(lba)];
    for (Entry& e : chain) {
        if (e.lba == lba) {
            e.pageId = page_id;
            return;
        }
    }
    panic("FCHT update of missing LBA");
}

double
FchtChained::avgProbeLength() const
{
    return lookups_ ? static_cast<double>(probes_) /
        static_cast<double>(lookups_) : 0.0;
}

} // namespace flashcache
