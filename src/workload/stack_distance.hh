/**
 * @file
 * LRU stack-distance analysis.
 *
 * One pass over a trace yields the LRU hit counts for *every* cache
 * size simultaneously (Mattson's algorithm with a Fenwick tree),
 * which the Figure 4 and Figure 7 benches use to sweep capacities
 * without re-simulating, and which the density-partition study uses
 * to evaluate SLC/MLC splits analytically.
 */

#ifndef FLASHCACHE_WORKLOAD_STACK_DISTANCE_HH
#define FLASHCACHE_WORKLOAD_STACK_DISTANCE_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "util/types.hh"

namespace flashcache {

/**
 * Streaming LRU stack-distance accumulator.
 */
class StackDistance
{
  public:
    StackDistance();

    /** Feed one page access. */
    void access(Lba lba);

    std::uint64_t accesses() const { return time_; }
    std::uint64_t distinctPages() const { return last_.size(); }
    std::uint64_t coldMisses() const { return cold_; }

    /**
     * Hits an LRU cache of the given size (in pages) would have
     * scored on the stream so far.
     */
    std::uint64_t hitsAtSize(std::uint64_t pages) const;

    /** Miss rate at the given cache size. */
    double missRateAtSize(std::uint64_t pages) const;

  private:
    /// @name Fenwick tree over access timestamps.
    /// A Fenwick tree cannot grow by appending zeros (new nodes
    /// cover old ranges), so the raw 0/1 occupancy array is kept and
    /// the tree is rebuilt on each doubling.
    /// @{
    void bitAdd(std::size_t i, int delta);
    std::uint64_t bitSum(std::size_t i) const; ///< sum of [0, i]
    void growTo(std::size_t n);
    /// @}

    std::unordered_map<Lba, std::uint64_t> last_; ///< page -> last time
    std::vector<int> bit_;
    std::vector<std::int8_t> raw_;
    std::vector<std::uint64_t> histogram_;
    mutable std::vector<std::uint64_t> cumulative_; ///< lazy prefix sums
    mutable bool cumulativeDirty_ = true;
    std::uint64_t time_ = 0;
    std::uint64_t cold_ = 0;
};

/**
 * Per-page access counts of a trace, sorted hottest first — the
 * popularity profile the SLC/MLC partition study needs.
 */
std::vector<std::uint64_t> popularityProfile(
    const std::vector<Lba>& accesses);

} // namespace flashcache

#endif // FLASHCACHE_WORKLOAD_STACK_DISTANCE_HH
