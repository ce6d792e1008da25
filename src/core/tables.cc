#include "core/tables.hh"

#include <bit>
#include <utility>

#include "util/log.hh"

namespace flashcache {

// ---------------------------------------------------------------------
// Open-addressed Fcht.
// ---------------------------------------------------------------------

Fcht::Fcht()
    : slots_(16, Slot{0, npos})
{
    // Starts small; the table doubles whenever the load factor
    // passes ~0.7.
}

void
Fcht::reserve(std::size_t n)
{
    std::size_t want = slots_.size();
    while (n * 10 > want * 7)
        want <<= 1;
    if (want > slots_.size())
        rehash(want);
}

std::size_t
Fcht::findSlot(Lba lba, bool count_probes) const
{
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = homeOf(lba); slots_[i].pageId != npos;
         i = (i + 1) & mask) {
        if (count_probes)
            ++probes_;
        if (slots_[i].lba == lba)
            return i;
    }
    return slots_.size();
}

std::uint64_t
Fcht::find(Lba lba) const
{
    ++lookups_;
    const std::size_t i = findSlot(lba, true);
    return i == slots_.size() ? npos : slots_[i].pageId;
}

void
Fcht::place(Lba lba, std::uint64_t page_id)
{
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = homeOf(lba);
    while (slots_[i].pageId != npos)
        i = (i + 1) & mask;
    slots_[i] = {lba, page_id};
}

void
Fcht::rehash(std::size_t slots)
{
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(slots, Slot{0, npos});
    shift_ = 64 - static_cast<unsigned>(std::countr_zero(slots));
    for (const Slot& s : old) {
        if (s.pageId != npos)
            place(s.lba, s.pageId);
    }
}

void
Fcht::insert(Lba lba, std::uint64_t page_id)
{
    if (insertOrFind(lba, page_id) != npos)
        panic("FCHT double insert for LBA");
}

std::uint64_t
Fcht::insertOrFind(Lba lba, std::uint64_t page_id)
{
    if (page_id == npos)
        panic("FCHT cannot map to the reserved npos page id");
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = homeOf(lba);
    while (slots_[i].pageId != npos) {
        if (slots_[i].lba == lba)
            return slots_[i].pageId;
        i = (i + 1) & mask;
    }
    // Keep load factor below ~0.7 so probe runs stay short.
    if ((size_ + 1) * 10 > slots_.size() * 7) {
        rehash(slots_.size() * 2);
        place(lba, page_id);
    } else {
        slots_[i] = {lba, page_id};
    }
    ++size_;
    return npos;
}

bool
Fcht::erase(Lba lba)
{
    std::size_t i = findSlot(lba, false);
    if (i == slots_.size())
        return false;
    // Backward-shift deletion: refill the hole from the probe run so
    // no tombstones accumulate and find() stays empty-terminated.
    const std::size_t mask = slots_.size() - 1;
    std::size_t j = i;
    for (;;) {
        j = (j + 1) & mask;
        if (slots_[j].pageId == npos)
            break;
        const std::size_t h = homeOf(slots_[j].lba);
        const bool home_between =
            i < j ? (h > i && h <= j) : (h > i || h <= j);
        if (!home_between) {
            slots_[i] = slots_[j];
            i = j;
        }
    }
    slots_[i].pageId = npos;
    --size_;
    return true;
}

void
Fcht::update(Lba lba, std::uint64_t page_id)
{
    const std::size_t i = findSlot(lba, false);
    if (i == slots_.size())
        panic("FCHT update of missing LBA");
    slots_[i].pageId = page_id;
}

double
Fcht::avgProbeLength() const
{
    return lookups_ ? static_cast<double>(probes_) /
        static_cast<double>(lookups_) : 0.0;
}

} // namespace flashcache
