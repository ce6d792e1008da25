/**
 * @file
 * The flash based disk cache — the paper's core contribution
 * (sections 3 and 5).
 *
 * A software-managed secondary disk cache held in NAND flash behind
 * a small DRAM primary disk cache (the PDC lives in the system
 * simulator; this class manages the flash level). Key mechanisms:
 *
 *  - FCHT/FPST/FBST/FGST management tables in DRAM (section 3).
 *  - Optional split into a read region and a write region
 *    (default 90%/10%, section 3.5): reads fill the read region,
 *    writes append out-of-place into the write-region log, and
 *    garbage collection only ever scans the owning region's blocks.
 *  - Background garbage collection (section 5.1): write-region GC
 *    compacts the block with the most invalid pages; read-region GC
 *    triggers when more than a configured fraction of the region is
 *    invalid.
 *  - Wear-level-aware replacement (section 3.6): LRU block eviction,
 *    except when the victim's wear exceeds the globally newest
 *    block's wear by a threshold — then the newest block's content
 *    migrates into the old block and the newest block is evicted.
 *  - Programmable-controller integration (section 5.2): pages whose
 *    corrected-error count reaches their ECC strength are
 *    reconfigured (stronger ECC vs MLC->SLC density drop, chosen by
 *    the latency heuristics), read-hot MLC pages migrate to SLC on
 *    access-counter saturation, and fully exhausted blocks retire.
 */

#ifndef FLASHCACHE_CORE_FLASH_CACHE_HH
#define FLASHCACHE_CORE_FLASH_CACHE_HH

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "controller/memory_controller.hh"
#include "controller/reconfig_policy.hh"
#include "core/backing_store.hh"
#include "core/lru.hh"
#include "core/tables.hh"
#include "sched/demand.hh"
#include "util/types.hh"

namespace flashcache {

namespace obs {
class MetricRegistry;
} // namespace obs

/** Tuning knobs; defaults follow the paper. */
struct FlashCacheConfig
{
    /** Split read/write regions (section 3.5) vs unified baseline. */
    bool splitRegions = true;

    /** Fraction of blocks owned by the read region when split. */
    double readRegionFraction = 0.9;

    /** Enable the programmable controller responses of section 5.2;
     *  off = fixed-strength baseline (Figure 12's "BCH-1"). */
    bool adaptiveReconfig = true;

    /** ECC strength newly formatted pages start with. */
    std::uint8_t initialEccStrength = 1;

    /** Hardware ECC limit (paper: 12 bits per 2 KB page). */
    std::uint8_t maxEccStrength = kMaxEccStrength;

    /** Saturation point of the FPST access counter; a saturated MLC
     *  page migrates to SLC (section 5.2.2). */
    std::uint8_t accessSaturation = 64;

    /** Allow hot-page MLC->SLC migration. */
    bool hotPageMigration = true;

    /** Wear-leveling on (section 3.6). */
    bool wearLeveling = true;

    /** Evicting a block this much more worn than the newest block
     *  triggers migration instead (erase-count-equivalents). */
    double wearThreshold = 64.0;

    /** GC only reclaims a block whose invalid fraction is at least
     *  this; blocks full of cold valid pages are evicted (flushed)
     *  instead of being copied forever. Set to 0 to emulate a
     *  storage log that can never evict (Figure 1(b)'s regime). */
    double gcMinInvalidFraction = 0.25;

    /** Reads between access-counter aging sweeps (halving), which
     *  keeps the relative-frequency estimate fresh. */
    std::uint64_t agingWindow = 1ull << 18;

    /** Real-data mode: page payloads move through the actual BCH +
     *  CRC pipeline with physically injected bit errors. Requires a
     *  store_data FlashDevice and a PayloadBackingStore; use
     *  readData()/writeData() instead of read()/write(). */
    bool realData = false;
};

/** Outcome of one cache-level access. */
struct CacheAccessResult
{
    bool hit = false;
    Seconds latency = 0.0;
};

/** Counters beyond the FGST. The Seconds accounts hold the flash
 *  time (array + ECC) of the work each cause ran; the disk time of
 *  its write-backs is counted by the disk (`disk.busy`), and total
 *  flash time by the device and controller (`flash.busy`,
 *  `ecc.busy`). */
struct FlashCacheStats
{
    Fgst fgst;

    std::uint64_t gcRuns = 0;
    std::uint64_t gcPageCopies = 0;
    std::uint64_t gcErases = 0;
    Seconds gcTime = 0.0;

    std::uint64_t evictions = 0;
    std::uint64_t evictionFlushes = 0;
    Seconds evictionTime = 0.0;

    std::uint64_t wearMigrations = 0;
    std::uint64_t eccReconfigs = 0;
    std::uint64_t densityReconfigs = 0;

    /// @name Section 5.2.1 policy decisions only (Figure 11's
    /// breakdown); the reconfig counters above also include the
    /// forced responses to uncorrectable reads.
    /// @{
    std::uint64_t policyEccChoices = 0;
    std::uint64_t policyDensityChoices = 0;
    /// @}
    std::uint64_t hotMigrations = 0;
    std::uint64_t retiredBlocks = 0;

    std::uint64_t uncorrectableReads = 0;
    std::uint64_t dataLossPages = 0;

    /** Transient-error re-reads the driver issued (section 4.1). */
    std::uint64_t eccRetryReads = 0;

    /// @name Degraded-mode event counts (fault.* metrics): how the
    /// cache absorbed injected medium/disk failures.
    /// @{
    std::uint64_t programFailReprograms = 0; ///< re-programs after status fail
    std::uint64_t eraseFailRetirements = 0;  ///< blocks retired by erase fail
    std::uint64_t diskFillFailures = 0;  ///< miss fills abandoned (disk fault)
    /** Dirty flushes the disk failed; the page stays dirty in flash
     *  (flushAll) or is lost with its evicted block. */
    std::uint64_t diskFlushFailures = 0;
    /// @}

    /** Crash-recovery scan results (recovery.* metrics). */
    struct RecoveryStats
    {
        std::uint64_t scannedPages = 0;   ///< programmed pages examined
        std::uint64_t tornPages = 0;      ///< OOB CRC rejects (torn/partial)
        std::uint64_t duplicatePages = 0; ///< older copies of a duplicate tag
        std::uint64_t stalePages = 0;     ///< dropped by disk generation tag
        std::uint64_t uncorrectablePages = 0; ///< failed validation read
        std::uint64_t recoveredPages = 0; ///< live pages reinstated
        std::uint64_t recoveredDirty = 0; ///< of those, still dirty
        std::uint64_t erasedBlocks = 0;   ///< garbage blocks erased in-scan
        Seconds scanTime = 0.0;           ///< flash time of scan/validate
    } recovery;

    /// @name Diagnostics for the reconfiguration policy: the access
    /// frequency of faulting pages and the two heuristic costs.
    /// @{
    RunningStat faultPageFreq;
    RunningStat faultEccCost;
    RunningStat faultDensityCost;
    /// @}

    /** Density/hot migration flash time: copies and the SLC
     *  reformat erases they cause. */
    Seconds reconfigTime = 0.0;
};

/**
 * The flash based disk cache.
 */
class FlashCache
{
  public:
    /**
     * @param controller Programmable flash memory controller.
     * @param store      Backing disk.
     * @param config     Policy knobs.
     */
    FlashCache(FlashMemoryController& controller, BackingStore& store,
               const FlashCacheConfig& config = FlashCacheConfig());

    /** Look up / fill one page read. */
    CacheAccessResult read(Lba lba);

    /** Accept one page write-back (out-of-place into the write
     *  region; the disk is updated later by flush/eviction). */
    CacheAccessResult write(Lba lba);

    /** Real-data read: the page contents land in `out` (pageDataBytes
     *  of the device geometry). Requires config.realData. */
    CacheAccessResult readData(Lba lba, std::uint8_t* out);

    /** Real-data write-back of one page's contents. */
    CacheAccessResult writeData(Lba lba, const std::uint8_t* data);

    /** Write every dirty page back to the disk. */
    void flushAll();

    /**
     * Rebuild every DRAM table from the medium after an uncontrolled
     * shutdown (power cut). Call on a freshly constructed cache whose
     * device holds the post-crash contents. Three flat passes in
     * block order: scan every programmed page's self-describing OOB
     * record, discard torn pages by CRC and resolve duplicate LBAs
     * by sequence number with the FCHT as the newest-copy index;
     * then, in physical page order, drop copies the backing store
     * has since superseded (generation tags) and validate survivors
     * through the ECC pipeline, unmapping any that fail; then set the
     * FPST and each block's region from the surviving records and
     * derive the rest as loadState() does. Recovered dirty
     * pages stay dirty (conservative: they will be flushed, never
     * silently dropped). Requires realData mode — the modeled path
     * stores no bytes to scan.
     */
    void recover();

    const FlashCacheStats& stats() const { return stats_; }
    const FlashCacheConfig& config() const { return config_; }
    const Fcht& fcht() const { return fcht_; }

    /** Register every `cache.*` metric, including the derived write
     *  amplification / GC efficiency / occupancy gauges. */
    void registerMetrics(obs::MetricRegistry& reg) const;

    /** Total logical page slots at current density modes. */
    std::uint64_t capacityPages() const;

    std::uint64_t validPages() const;
    std::uint64_t invalidPages() const;

    /** Valid fraction of total capacity. */
    double occupancy() const;

    /** Valid fraction of one region's nominal page slots (0 = read
     *  region, 1 = write region; 0 when the region owns no blocks). */
    double regionOccupancy(int region) const;

    /** Blocks not yet retired. */
    std::uint32_t liveBlocks() const;

    /**
     * True when so many blocks retired that the cache can no longer
     * operate (Figure 12's "point of total Flash failure").
     */
    bool failed() const;

    /** GC's share of flash time: gcTime over the device's array time
     *  plus the controller's ECC time. */
    double gcOverheadFraction() const;

    /** Access the FPST entry of a page id (tests/benches). */
    const FpstEntry& fpstEntry(std::uint64_t page_id) const;

    /** Access the FBST entry of a block (tests). */
    const FbstEntry&
    fbstEntry(std::uint32_t block) const
    {
        return fbst_.at(block);
    }

    /** Run invariant checks (tests); panics on violation. */
    void checkInvariants() const;

    /// @name Warm-restart persistence (section 3: the management
    /// tables live on disk and load into DRAM at run time). The
    /// snapshot holds only primary state; the rest is derived on load
    /// against the device, so the FlashDevice state must be loaded
    /// first, from the same save. Statistics restart fresh. Geometry
    /// and split mode must match on load.
    /// @{
    void saveState(std::ostream& os) const;
    void loadState(std::istream& is);
    /// @}

  private:
    static constexpr int kRead = 0;
    static constexpr int kWrite = 1;
    static constexpr std::uint32_t kNoBlock = ~0u;

    /** Per-region allocation and replacement state. */
    struct Region
    {
        std::vector<std::uint32_t> freeBlocks;
        IntrusiveLru lruBlocks; ///< filled, evictable
        /** Append cursors: [0] general, [1] dedicated SLC. */
        struct Cursor
        {
            std::uint32_t block = kNoBlock;
            std::uint16_t frame = 0;
            std::uint8_t sub = 0;
        };
        std::array<Cursor, 2> cursor;
        std::uint64_t validCount = 0;
        std::uint64_t invalidCount = 0;

        /** Blocks the region lists: free, LRU and open cursors. */
        std::uint32_t
        ownedBlocks() const
        {
            return static_cast<std::uint32_t>(
                freeBlocks.size() + lruBlocks.size() +
                (cursor[0].block != kNoBlock) +
                (cursor[1].block != kNoBlock));
        }

        /// @name Incremental GC victim tracking: doubly linked buckets
        /// of LRU-resident blocks keyed by invalid-page count (links
        /// live in FlashCache::gcPrev_/gcNext_), plus a lazily decayed
        /// upper bound on the occupied bucket indices. Victim pick is
        /// O(1) amortized instead of the seed's full-region scan.
        /// @{
        std::vector<std::uint32_t> gcBucketHead;
        std::uint32_t gcMaxInvalid = 0;
        /// @}
    };

    /// @name Page id <-> address mapping.
    /// @{
    std::uint64_t
    pageId(const PageAddress& a) const
    {
        return (static_cast<std::uint64_t>(a.block) * framesPerBlock_ +
                a.frame) * 2 + a.sub;
    }

    PageAddress
    addressOf(std::uint64_t id) const
    {
        PageAddress a;
        a.sub = static_cast<std::uint8_t>(id & 1);
        const std::uint64_t fid = id >> 1;
        a.frame = static_cast<std::uint16_t>(fid % framesPerBlock_);
        a.block = static_cast<std::uint32_t>(fid / framesPerBlock_);
        return a;
    }

    std::uint32_t
    blockOf(std::uint64_t id) const
    {
        return static_cast<std::uint32_t>(id / (2 * framesPerBlock_));
    }
    /// @}

    int regionOf(std::uint32_t block) const;

    /**
     * Derive every table a restart does not store from the primary
     * state: FPST modes and FBST SLC frame counts from the device's
     * frame modes, FBST page counts from the FPST, region page counts
     * from the FBST, and, on request, the FCHT from the valid pages.
     * Both restart paths end here (loadState() and recover()); each
     * first sets every usable block's FBST region. fatal()s when the
     * primary state cannot be a cache's: a usable block in no region,
     * a retired block holding a valid or invalid page, an LBA mapped
     * twice, an FPST state that disagrees with the device's
     * programmed flag or a used second page on an SLC frame.
     *
     * @param rebuild_fcht Insert every valid page into the FCHT, which
     *        the caller has emptied and sized. recover()'s scan
     *        already leaves the FCHT mapping each LBA to its one live
     *        page and passes false.
     */
    void deriveTables(bool rebuild_fcht);

    /** Pages a block can hold at its current frame modes: two per
     *  MLC frame, one per SLC frame (checkInvariants() recounts it
     *  from the device). */
    std::uint32_t
    blockPageSlots(std::uint32_t block) const
    {
        return 2 * framesPerBlock_ - fbst_[block].slcFrames;
    }

    /** Advance a cursor to its next free slot; false when the block
     *  is exhausted. */
    bool cursorNext(Region::Cursor& cur) const;

    /**
     * Allocate one page slot in a region.
     *
     * @param region    kRead or kWrite.
     * @param want_slc  Use the dedicated SLC cursor.
     * @param time_sink The caller's account; an SLC reformat erase
     *                  is charged to it.
     * @return page id, or nullopt when the region is out of space.
     */
    std::optional<std::uint64_t> allocateSlot(int region, bool want_slc,
                                              Seconds& time_sink);

    /** Take a block from the free list (re-erasing it to SLC, charged
     *  to `time_sink`, if the SLC cursor asked and it isn't mostly
     *  SLC yet). */
    std::optional<std::uint32_t> takeFreeBlock(int region, bool want_slc,
                                               Seconds& time_sink);

    /** Outcome of installPage: where the page actually landed (a
     *  program-status failure re-programs on a fresh slot). */
    struct InstallResult
    {
        std::uint64_t id = 0;
        Seconds latency = 0.0;
    };

    /** Program a new valid page and wire up all tables; `data`
     *  (real-data mode) routes through the real encoder. On a
     *  program-status failure the slot is marked invalid, the block
     *  queued for retirement, and the program retried on a fresh
     *  slot — the returned id is where the page finally landed. A
     *  reformat erase that fresh slot needs is charged to
     *  `time_sink`, the caller's account. */
    InstallResult installPage(std::uint64_t id, Lba lba, bool dirty,
                              std::uint8_t access_count,
                              const std::uint8_t* data,
                              Seconds& time_sink);

    /** Mark a valid page invalid (out-of-place supersede). */
    void invalidatePage(std::uint64_t id, bool drop_mapping);

    /** Garbage collect the region block with the most invalid pages.
     *  @return true when a block was reclaimed. */
    bool garbageCollect(int region);

    /** Evict a block chosen by wear-aware LRU (section 3.6). */
    bool evictBlock(int region);

    /** Section 3.6 check used by eviction and GC: swap with the
     *  globally newest block when the victim is too worn.
     *  @return true when the swap happened (space was freed). */
    bool tryWearSwap(std::uint32_t victim);

    /** Section 3.6 migration: evict `newest` instead of `victim`,
     *  moving its young content into the worn victim block. */
    void wearLevelSwap(std::uint32_t victim, std::uint32_t newest);

    /** GC the read region only past its invalid-fraction threshold. */
    bool garbageCollectIfUseful(int region);

    /** Keep a one-block reserve so GC relocation never starves. */
    void replenishReserve(int region);

    /** Flush (if dirty) and drop every valid page of a block, then
     *  erase it. @return false when the erase failed (block retired). */
    bool reclaimBlock(std::uint32_t block, Seconds& time_sink);

    /** Read a dirty page back and write it back to the backing store.
     *  @return false when the flash copy was unreadable. */
    bool flushPage(std::uint64_t id, Seconds& time_sink);

    /** The one backing-store write of a flush: persists the page
     *  (from `buf` in real-data mode) and clears its dirty flag; a
     *  failed disk write leaves the page dirty. Its disk time is the
     *  disk's to count, not a flash account's. */
    void writeBack(FpstEntry& e, const std::uint8_t* buf);

    /** Drop a valid page and its mapping; a page that is still dirty
     *  is data loss. */
    void dropPage(std::uint64_t id);

    /** Erase + bookkeeping. On an erase failure the block is retired
     *  in place (region capacity shrinks) and false is returned —
     *  callers must not hand it to a free list. */
    bool eraseBlockTracked(std::uint32_t block, Seconds& time_sink);

    /** Retire blocks queued by program-status failures; runs at the
     *  end of public entry points so retirement (which itself
     *  relocates pages) never reenters a half-done install. */
    void drainPendingRetires();

    /** Read a page, re-reading once when a transient error spike
     *  (not persistent wear) made the first attempt uncorrectable.
     *  With `out` non-null (real-data mode) the payload goes through
     *  the actual BCH pipeline into the buffer. */
    ControllerReadResult readWithRetry(const PageAddress& addr,
                                       const PageDescriptor& desc,
                                       std::uint8_t* out = nullptr);

    /** Shared read path; `out` selects the real-data pipeline. */
    CacheAccessResult readImpl(Lba lba, std::uint8_t* out);

    /** Shared write path; `data` selects the real-data pipeline. */
    CacheAccessResult writeImpl(Lba lba, const std::uint8_t* data);

    /** Copy one valid page elsewhere in its region (GC / density
     *  relocation / hot migration). @return new page id. */
    std::optional<std::uint64_t> relocatePage(std::uint64_t id,
                                              bool want_slc,
                                              Seconds& time_sink);

    /** Move a page already read into `buf` to the free slot `dst`:
     *  its LBA, dirty flag and access count follow it, the FCHT is
     *  repointed. @return where the page landed. */
    std::uint64_t movePage(std::uint64_t id, std::uint64_t dst,
                           const std::uint8_t* buf, Seconds& time_sink);

    /** The controller descriptor a page's FPST entry asks for. */
    static PageDescriptor
    descOf(const FpstEntry& e)
    {
        return {e.eccStrength, e.mode};
    }

    /** The page workspace in real-data mode, else nullptr (the
     *  controller then models the payload). */
    std::uint8_t*
    payloadBuf()
    {
        return pageBuf_.empty() ? nullptr : pageBuf_.data();
    }

    /** Apply section 5.2 triggers after a read hit. */
    void maybeReconfigure(std::uint64_t id,
                          const ControllerReadResult& res);

    /** Retire a block whose pages exhausted ECC and density. */
    void retireBlock(std::uint32_t block);

    /** Periodic access-counter aging. */
    void maybeAge();

    double pageAccessFreq(const FpstEntry& e) const;

    /// @name GC bucket + LRU maintenance. All lruBlocks membership
    /// changes go through these wrappers so the invalid-count buckets
    /// stay consistent with the replacement list.
    /// @{
    void gcBucketInsert(Region& reg, std::uint32_t block);
    void gcBucketRemove(Region& reg, std::uint32_t block);
    /** Move a block between buckets after invalidPages changed. */
    void gcBucketShift(Region& reg, std::uint32_t block,
                       std::uint16_t old_count);
    void lruTouch(Region& reg, std::uint32_t block);
    bool lruErase(Region& reg, std::uint32_t block);
    void lruClear(Region& reg);
    /** Pick the seed-identical GC victim (first block in MRU order
     *  with maximal invalidPages), or kNoBlock when none invalid.
     *  Writes the decayed bucket upper bound back into the region
     *  (lazy decrement — paid for by past increments). */
    std::uint32_t gcPickVictim(Region& reg);
    /// @}

    FlashMemoryController* ctrl_;
    BackingStore* store_;
    PayloadBackingStore* payloadStore_ = nullptr; ///< real-data mode
    FlashCacheConfig config_;

    std::uint32_t framesPerBlock_;
    std::uint32_t numBlocks_;

    Fcht fcht_;
    std::vector<FpstEntry> fpst_;
    std::vector<FbstEntry> fbst_;
    std::array<Region, 2> regions_;

    /** Per-block GC bucket links (shared across regions; a block is
     *  in at most one region's buckets at a time). */
    std::vector<std::uint32_t> gcPrev_;
    std::vector<std::uint32_t> gcNext_;

    /** Constructor-sized page workspace for relocate/flush/migration
     *  copies in real-data mode (no per-call buffers). */
    std::vector<std::uint8_t> pageBuf_;

    FlashCacheStats stats_;
    std::uint64_t readsSinceAging_ = 0;
    std::uint64_t windowReads_ = 0;

    /** Global program sequence number stamped into every OOB record;
     *  strictly increasing across installs and flush generations. */
    std::uint64_t nextSeq_ = 1;

    /** Blocks awaiting retirement after a program-status failure
     *  (drained at the end of the public entry points). */
    std::vector<std::uint32_t> pendingRetire_;
};

} // namespace flashcache

#endif // FLASHCACHE_CORE_FLASH_CACHE_HH
