/**
 * @file
 * Per-page wear tracking with O(1) error-count queries, the oracle the
 * wear-model and model-agreement tests read the weak-cell sampler
 * through.
 *
 * Each page pre-samples the lifetimes of only its k weakest cells
 * (sampleWeakestLifetimes). The number of hard (permanent) bit errors
 * after c effective W/E cycles is then just "how many sampled
 * lifetimes are <= c" — a binary search. FlashDevice keeps the same
 * per-frame vector in its FrameState.
 */

#ifndef FLASHCACHE_TESTS_SUPPORT_PAGE_HEALTH_HH
#define FLASHCACHE_TESTS_SUPPORT_PAGE_HEALTH_HH

#include <vector>

#include "reliability/page_health.hh"

namespace flashcache {

/**
 * Wear state of one flash page.
 */
class PageHealth
{
  public:
    /**
     * @param model    Shared lifetime distribution.
     * @param rng      Simulation RNG (per-page draws).
     * @param n_cells  Bits in the page including spare.
     * @param k        How many weak cells to track; errors beyond k
     *                 saturate (k >= max ECC strength + margin).
     * @param page_offset_decades Spatial quality of this page.
     */
    PageHealth(const CellLifetimeModel& model, Rng& rng, unsigned n_cells,
               unsigned k, double page_offset_decades = 0.0);

    /** Hard bit errors present after the given effective cycles. */
    unsigned hardErrors(double effective_cycles) const;

    /** Effective cycles at which the (i+1)-th bit error appears. */
    double errorOnset(unsigned i) const;

    /** Number of weak cells tracked (error count saturates here). */
    unsigned tracked() const
    {
        return static_cast<unsigned>(weakest_.size());
    }

  private:
    std::vector<double> weakest_;
};

} // namespace flashcache

#endif // FLASHCACHE_TESTS_SUPPORT_PAGE_HEALTH_HH
