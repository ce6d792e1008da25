/**
 * @file
 * The four DRAM-resident management tables of the flash based disk
 * cache (paper section 3): FCHT, FPST, FBST and FGST. All four are
 * kept in DRAM at run time to avoid flash wear from metadata churn;
 * their combined overhead is ~2% of the flash size.
 */

#ifndef FLASHCACHE_CORE_TABLES_HH
#define FLASHCACHE_CORE_TABLES_HH

#include <cstdint>
#include <vector>

#include "flash/geometry.hh"
#include "util/stats.hh"
#include "util/types.hh"

namespace flashcache {

/** Allocation state of one logical flash page. */
enum class PageState : std::uint8_t
{
    Free,    ///< erased, available for programming
    Valid,   ///< holds live cached data
    Invalid, ///< superseded by an out-of-place write; awaits GC
};

/**
 * Flash page status table entry (section 3.2): ECC strength,
 * SLC/MLC mode, saturating access counter and valid bit — one per
 * logical flash page. The ECC strength persists across page reuse
 * because it reflects the physical wear of the underlying cells.
 */
struct FpstEntry
{
    Lba lba = kInvalidLba;
    PageState state = PageState::Free;
    std::uint8_t eccStrength = 1;
    DensityMode mode = DensityMode::MLC;
    std::uint8_t accessCount = 0;
    bool dirty = false;
};

/**
 * Flash block status table entry (section 3.3): erase count lives in
 * the device; here we cache the per-block sums the wear-out cost
 * function needs, plus region bookkeeping.
 */
struct FbstEntry
{
    std::uint32_t totalEcc = 0;   ///< sum of page ECC strengths
    std::uint16_t slcFrames = 0;  ///< frames converted to SLC
    std::uint16_t validPages = 0;
    std::uint16_t invalidPages = 0;
    bool retired = false;
    std::int8_t region = -1;      ///< region listing the block, -1 = retired

    /** Wear cost-function weights; k2 > k1 because a density switch
     *  signals far more wear than an ECC bump (section 3.3). */
    static constexpr double kWearK1 = 2.0;
    static constexpr double kWearK2 = 40.0;

    /**
     * Degree of wear out (section 3.3):
     * wear_i = N_erase,i + k1 * TotalECC,i + k2 * TotalSLC_MLC,i.
     */
    double
    wearOut(std::uint32_t erase_count) const
    {
        return static_cast<double>(erase_count) + kWearK1 * totalEcc +
            kWearK2 * slcFrames;
    }
};

/**
 * Flash global status table (section 3.4): summary statistics —
 * miss rate and average latencies — that drive the reconfiguration
 * heuristics of section 5.2.
 */
struct Fgst
{
    RatioStat reads;         ///< flash read hits vs misses
    RatioStat writes;        ///< write updates vs fresh fills
    RunningStat hitLatency;  ///< t_hit samples
    RunningStat missPenalty; ///< t_miss samples

    /** Record a read outcome in both the cumulative ratio and the
     *  recency-weighted estimate the reconfiguration policy uses. */
    void
    recordRead(bool hit)
    {
        if (hit)
            reads.hit();
        else
            reads.miss();
        ewmaMiss_ += kEwmaGain * ((hit ? 0.0 : 1.0) - ewmaMiss_);
    }

    double
    missRate() const
    {
        return reads.missRate();
    }

    /** Recency-weighted miss rate (time constant ~4k reads); a cold
     *  warmup does not poison steady-state policy decisions. */
    double
    recentMissRate() const
    {
        return ewmaMiss_;
    }

    /** Record the FPST access count a hit page had before the hit;
     *  hits on cold pages mean the capacity margin still earns hits
     *  (long-tailed workload), hits concentrated on hot pages mean
     *  the margin is dead (short-tailed workload). */
    void
    recordHitPageCount(std::uint8_t pre_count)
    {
        ewmaMarginal_ += kEwmaGain * ((pre_count <= 1 ? 1.0 : 0.0) -
                                      ewmaMarginal_);
    }

    /** Recency-weighted fraction of hits landing on cold pages. */
    double
    marginalHitFraction() const
    {
        return ewmaMarginal_;
    }

    Seconds
    avgHitLatency() const
    {
        return hitLatency.mean();
    }

    Seconds
    avgMissPenalty() const
    {
        return missPenalty.mean();
    }

  private:
    static constexpr double kEwmaGain = 1.0 / 4096.0;
    double ewmaMiss_ = 0.5;
    double ewmaMarginal_ = 0.5;
};

/**
 * FlashCache hash table (section 3.1): maps disk LBAs to flash page
 * ids. The paper organizes it as a fully associative table indexed
 * by a hash and reports that ~100 indexable entries already reach
 * peak throughput; the seed chained table in
 * tests/support/fcht_chained.hh keeps that configurable bucket count
 * for micro_cache's section 3.1 sweep. Probe lengths are tracked so
 * the claim stays measurable.
 *
 * Implemented as an open-addressed flat table (linear probing with
 * backward-shift deletion) in which every slot is a home position.
 * It grows on load factor, so probes stay short and steady state is
 * allocation-free; reserve() pre-sizes it for a known population.
 * The primary disk cache's LBA index is one too.
 *
 * The home slot is the top bits of a two-multiply mix of the LBA
 * (hashOf()), so dense, sparse and power-of-two-strided LBA sets all
 * probe about as often as uniform hashing predicts. One Fibonacci
 * product is not enough: its middle bits cluster dense LBA sets and
 * its top bits cluster power-of-two strides (DESIGN.md section 8).
 */
class Fcht
{
  public:
    static constexpr std::uint64_t npos = ~static_cast<std::uint64_t>(0);

    Fcht();

    /** Pre-size so n mappings fit without growing. */
    void reserve(std::size_t n);

    /** Look up an LBA. @return page id or npos. */
    std::uint64_t find(Lba lba) const;

    /** Insert a mapping; the LBA must not already be present. */
    void insert(Lba lba, std::uint64_t page_id);

    /** Insert a mapping unless the LBA is already mapped, in one
     *  probe run that avgProbeLength() does not count. @return the
     *  page id the LBA already maps to, or npos when it was inserted. */
    std::uint64_t insertOrFind(Lba lba, std::uint64_t page_id);

    /** Remove a mapping. @return true when it existed. */
    bool erase(Lba lba);

    /** Redirect an existing mapping to a new page id. */
    void update(Lba lba, std::uint64_t page_id);

    std::size_t size() const { return size_; }

    /** Current flat-table slot count (grows on load factor). */
    std::size_t slots() const { return slots_.size(); }

    /** Mean occupied slots inspected per find() so far. */
    double avgProbeLength() const;

    /** The LBA's 64-bit mix: multiply, xor-shift, multiply. A table
     *  of 2^k slots homes the LBA at the top k bits. */
    static constexpr std::uint64_t
    hashOf(Lba lba)
    {
        std::uint64_t h = lba * 0x9E3779B97F4A7C15ull;
        h ^= h >> 32;
        return h * 0xD6E8FEB86659FD93ull;
    }

  private:
    struct Slot
    {
        Lba lba;
        std::uint64_t pageId; ///< npos marks an empty slot
    };

    /** Position a probe sequence for this LBA starts at. */
    std::size_t
    homeOf(Lba lba) const
    {
        return static_cast<std::size_t>(hashOf(lba) >> shift_);
    }

    /** Slot holding the LBA, or the table size when absent; probe
     *  instrumentation only accumulates when count_probes is set
     *  (find() counts, erase()/update() do not — seed semantics). */
    std::size_t findSlot(Lba lba, bool count_probes) const;

    /** Re-place every mapping into a table of `slots` slots. */
    void rehash(std::size_t slots);
    void place(Lba lba, std::uint64_t page_id);

    std::vector<Slot> slots_;
    unsigned shift_ = 60; ///< 64 - log2(slots_.size())
    std::size_t size_ = 0;
    mutable std::uint64_t lookups_ = 0;
    mutable std::uint64_t probes_ = 0;
};

} // namespace flashcache

#endif // FLASHCACHE_CORE_TABLES_HH
