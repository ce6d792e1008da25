/**
 * @file
 * Weak-cell sampling for per-page wear tracking.
 *
 * Simulating bit errors cell-by-cell would cost 16k+ samples per
 * page. Instead each page pre-samples the lifetimes of only its k
 * weakest cells using uniform order statistics: the j-th smallest of
 * n iid lifetimes maps through the inverse CDF of the cell lifetime
 * distribution. The number of hard (permanent) bit errors after c
 * effective W/E cycles is then just "how many sampled lifetimes are
 * <= c" — a binary search (FlashDevice::hardErrorsOf).
 *
 * Effective cycles account for density mode: an erase in MLC mode
 * wears the cell mlcWearMultiplier times faster (Table 1's 10x
 * SLC/MLC endurance gap).
 */

#ifndef FLASHCACHE_RELIABILITY_PAGE_HEALTH_HH
#define FLASHCACHE_RELIABILITY_PAGE_HEALTH_HH

#include <cstdint>
#include <vector>

#include "reliability/wear_model.hh"
#include "util/rng.hh"

namespace flashcache {

/**
 * Sample the k smallest of n iid cell lifetimes (in cycles),
 * ascending, for a page whose distribution is shifted by
 * page_offset_decades.
 */
std::vector<double> sampleWeakestLifetimes(const CellLifetimeModel& model,
                                           Rng& rng, unsigned n_cells,
                                           unsigned k,
                                           double page_offset_decades);

} // namespace flashcache

#endif // FLASHCACHE_RELIABILITY_PAGE_HEALTH_HH
