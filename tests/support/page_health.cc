#include "support/page_health.hh"

#include <algorithm>
#include <limits>

namespace flashcache {

PageHealth::PageHealth(const CellLifetimeModel& model, Rng& rng,
                       unsigned n_cells, unsigned k,
                       double page_offset_decades)
    : weakest_(sampleWeakestLifetimes(model, rng, n_cells, k,
                                      page_offset_decades))
{
}

unsigned
PageHealth::hardErrors(double effective_cycles) const
{
    const auto it = std::upper_bound(weakest_.begin(), weakest_.end(),
                                     effective_cycles);
    return static_cast<unsigned>(it - weakest_.begin());
}

double
PageHealth::errorOnset(unsigned i) const
{
    if (i >= weakest_.size())
        return std::numeric_limits<double>::infinity();
    return weakest_[i];
}

} // namespace flashcache
