#include "core/flash_cache.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "obs/metrics.hh"
#include "util/log.hh"
#include "util/serialize.hh"

namespace flashcache {

namespace {

/** Read-region GC triggers when its invalid-page fraction exceeds
 *  this (capacity below 90%, section 5.1). */
constexpr double kReadGcInvalidFraction = 0.10;

/** Snapshot record sizes: an FPST entry is lba(8) state(1)
 *  eccStrength(1) accessCount(1) dirty(1); an FBST entry is
 *  totalEcc(4) retired(1). The rest of both tables is derived on
 *  load (FlashCache::deriveTables). */
constexpr std::size_t kFpstRecordBytes = 12;
constexpr std::size_t kFbstRecordBytes = 5;

} // namespace

FlashCache::FlashCache(FlashMemoryController& controller,
                       BackingStore& store,
                       const FlashCacheConfig& config)
    : ctrl_(&controller), store_(&store), config_(config)
{
    const FlashGeometry& geom = ctrl_->device().geometry();
    framesPerBlock_ = geom.framesPerBlock;
    numBlocks_ = geom.numBlocks;

    if (config_.realData) {
        if (!ctrl_->device().storesData())
            fatal("realData mode requires a store_data FlashDevice");
        payloadStore_ = dynamic_cast<PayloadBackingStore*>(store_);
        if (!payloadStore_)
            fatal("realData mode requires a PayloadBackingStore");
    }

    fpst_.resize(static_cast<std::size_t>(numBlocks_) * framesPerBlock_ *
                 2);
    for (FpstEntry& e : fpst_)
        e.eccStrength = config_.initialEccStrength;
    fbst_.resize(numBlocks_);

    // Size every hot-path structure up front so steady-state serving
    // never allocates: LRU slabs and GC bucket heads cover all
    // blocks, the free pools never regrow, and one page workspace
    // serves every relocate/flush copy.
    gcPrev_.assign(numBlocks_, kNoBlock);
    gcNext_.assign(numBlocks_, kNoBlock);
    for (Region& reg : regions_) {
        reg.lruBlocks.resize(numBlocks_);
        reg.gcBucketHead.assign(2ull * framesPerBlock_ + 1, kNoBlock);
        reg.freeBlocks.reserve(numBlocks_);
    }
    if (config_.realData)
        pageBuf_.resize(geom.pageDataBytes);
    pendingRetire_.reserve(numBlocks_);

    std::uint32_t read_blocks = config_.splitRegions
        ? static_cast<std::uint32_t>(
              std::lround(config_.readRegionFraction * numBlocks_))
        : numBlocks_;
    if (config_.splitRegions) {
        read_blocks = std::clamp<std::uint32_t>(read_blocks, 2,
                                                numBlocks_ - 2);
        if (numBlocks_ < 4)
            fatal("split flash cache needs at least 4 blocks");
    }

    for (std::uint32_t b = 0; b < numBlocks_; ++b) {
        if (ctrl_->device().isFactoryBad(b)) {
            // Shipped bad: never joins a region (section 5.2's
            // retirement, applied at format time).
            fbst_[b].retired = true;
            ++stats_.retiredBlocks;
            continue;
        }
        const int r = (config_.splitRegions && b >= read_blocks) ? kWrite
                                                                 : kRead;
        fbst_[b].region = static_cast<std::int8_t>(r);
        regions_[r].freeBlocks.push_back(b);
    }
    if (failed())
        fatal("too many factory bad blocks for a usable cache");
}

void
FlashCache::registerMetrics(obs::MetricRegistry& reg) const
{
    const FlashCacheStats* st = &stats_;

    reg.ratio("cache.read", "flash cache reads", &st->fgst.reads);
    reg.ratio("cache.write", "flash cache write-backs",
              &st->fgst.writes);
    reg.gauge("cache.recent_miss_rate", "FGST EWMA miss rate",
              [st] { return st->fgst.recentMissRate(); });
    reg.gauge("cache.avg_hit_latency", "FGST t_hit seconds",
              [st] { return st->fgst.avgHitLatency(); });
    reg.gauge("cache.avg_miss_penalty", "FGST t_miss seconds",
              [st] { return st->fgst.avgMissPenalty(); });
    reg.gauge("cache.marginal_hit_fraction",
              "recent hits landing on cold pages",
              [st] { return st->fgst.marginalHitFraction(); });

    reg.gauge("cache.occupancy", "valid fraction of capacity",
              [this] { return occupancy(); });
    reg.gauge("cache.occupancy_read_region",
              "valid fraction of the read region",
              [this] { return regionOccupancy(kRead); });
    reg.gauge("cache.occupancy_write_region",
              "valid fraction of the write region",
              [this] { return regionOccupancy(kWrite); });
    reg.gauge("cache.live_blocks", "blocks not yet retired",
              [this] { return static_cast<double>(liveBlocks()); });

    reg.counter("cache.gc_runs", "garbage collections", &st->gcRuns);
    reg.counter("cache.gc_copies", "pages relocated by GC",
                &st->gcPageCopies);
    reg.counter("cache.gc_erases", "blocks erased by GC",
                &st->gcErases);
    reg.counter("cache.gc_time", "GC flash seconds (array + ECC)",
                &st->gcTime);
    reg.gauge("cache.gc_overhead", "GC share of flash + ECC busy time",
              [this] { return gcOverheadFraction(); });
    reg.gauge("cache.gc_copies_per_erase",
              "GC efficiency: relocations per reclaimed block", [st] {
                  return st->gcErases ? static_cast<double>(
                      st->gcPageCopies) /
                      static_cast<double>(st->gcErases) : 0.0;
              });
    reg.gauge("cache.write_amplification",
              "flash programs per host write-back", [this] {
                  const std::uint64_t host =
                      stats_.fgst.writes.total();
                  return host ? static_cast<double>(
                      ctrl_->stats().writes) /
                      static_cast<double>(host) : 0.0;
              });

    reg.counter("cache.evictions", "block evictions",
                &st->evictions);
    reg.counter("cache.eviction_flushes",
                "dirty pages flushed to disk", &st->evictionFlushes);
    reg.counter("cache.eviction_time",
                "eviction/flush flash seconds (array + ECC)",
                &st->evictionTime);
    reg.counter("cache.wear_migrations",
                "section 3.6 newest-block swaps",
                &st->wearMigrations);
    reg.counter("cache.ecc_reconfigs", "ECC strength increases",
                &st->eccReconfigs);
    reg.counter("cache.density_reconfigs", "MLC->SLC switches",
                &st->densityReconfigs);
    reg.counter("cache.policy_ecc_choices",
                "section 5.2.1 policy picks: stronger ECC",
                &st->policyEccChoices);
    reg.counter("cache.policy_density_choices",
                "section 5.2.1 policy picks: density switch",
                &st->policyDensityChoices);
    reg.counter("cache.hot_migrations", "read-hot SLC migrations",
                &st->hotMigrations);
    reg.counter("cache.retired_blocks", "blocks retired",
                &st->retiredBlocks);
    reg.counter("cache.uncorrectable", "uncorrectable reads",
                &st->uncorrectableReads);
    reg.counter("cache.data_loss_pages", "dirty pages lost to wear",
                &st->dataLossPages);
    reg.counter("cache.ecc_retry_reads",
                "transient-error re-reads", &st->eccRetryReads);
    reg.gauge("cache.ecc_retry_rate",
              "re-reads per flash cache read", [this] {
                  const std::uint64_t n = stats_.fgst.reads.total();
                  return n ? static_cast<double>(
                      stats_.eccRetryReads) /
                      static_cast<double>(n) : 0.0;
              });
    reg.gauge("cache.reconfig_rate",
              "ECC + density reconfigs per flash cache read", [this] {
                  const std::uint64_t n = stats_.fgst.reads.total();
                  return n ? static_cast<double>(
                      stats_.eccReconfigs + stats_.densityReconfigs) /
                      static_cast<double>(n) : 0.0;
              });
    reg.counter("cache.reconfig_time",
                "density/hot migration flash seconds (copies, reformats)",
                &st->reconfigTime);

    reg.counter("fault.program_fail_reprograms",
                "pages re-programmed after a program-status failure",
                &st->programFailReprograms);
    reg.counter("fault.erase_fail_retirements",
                "blocks retired by an erase failure",
                &st->eraseFailRetirements);
    reg.counter("fault.disk_fill_failures",
                "miss fills abandoned after a failed disk read",
                &st->diskFillFailures);
    reg.counter("fault.disk_flush_failures",
                "dirty flushes failed by disk faults",
                &st->diskFlushFailures);

    reg.counter("recovery.scanned_pages",
                "programmed pages examined by recover()",
                &st->recovery.scannedPages);
    reg.counter("recovery.torn_pages",
                "pages rejected by the OOB CRC (torn/partial)",
                &st->recovery.tornPages);
    reg.counter("recovery.duplicate_pages",
                "older copies of duplicate tags discarded",
                &st->recovery.duplicatePages);
    reg.counter("recovery.stale_pages",
                "copies dropped by the disk generation tag",
                &st->recovery.stalePages);
    reg.counter("recovery.uncorrectable_pages",
                "candidates failing the validation read",
                &st->recovery.uncorrectablePages);
    reg.counter("recovery.recovered_pages",
                "live pages reinstated by recover()",
                &st->recovery.recoveredPages);
    reg.counter("recovery.recovered_dirty",
                "recovered pages still marked dirty",
                &st->recovery.recoveredDirty);
    reg.counter("recovery.erased_blocks",
                "garbage blocks erased during recovery",
                &st->recovery.erasedBlocks);
    reg.counter("recovery.scan_seconds",
                "scan + validation flash seconds",
                &st->recovery.scanTime);
}

double
FlashCache::regionOccupancy(int region) const
{
    const Region& reg = regions_[region];
    const double slots = static_cast<double>(reg.ownedBlocks()) *
        framesPerBlock_ * 2;
    return slots > 0.0
        ? static_cast<double>(reg.validCount) / slots : 0.0;
}

int
FlashCache::regionOf(std::uint32_t block) const
{
    const int r = fbst_[block].region;
    if (r < 0)
        panic("block has no owning region");
    return r;
}

bool
FlashCache::cursorNext(Region::Cursor& cur) const
{
    const FlashDevice& dev = ctrl_->device();
    if (cur.sub == 0 &&
        dev.frameMode(cur.block, cur.frame) == DensityMode::MLC) {
        cur.sub = 1;
    } else {
        cur.sub = 0;
        ++cur.frame;
    }
    return cur.frame < framesPerBlock_;
}

std::optional<std::uint32_t>
FlashCache::takeFreeBlock(int region, bool want_slc, Seconds& time_sink)
{
    Region& reg = regions_[region];
    if (reg.freeBlocks.empty())
        return std::nullopt;

    FlashDevice& dev = ctrl_->device();

    // Prefer a block already formatted in the wanted density to
    // avoid a reformat erase.
    std::size_t pick = reg.freeBlocks.size() - 1;
    for (std::size_t i = reg.freeBlocks.size(); i-- > 0;) {
        const std::uint32_t b = reg.freeBlocks[i];
        const bool all_slc = fbst_[b].slcFrames == framesPerBlock_;
        if (want_slc == all_slc) {
            pick = i;
            break;
        }
    }
    const std::uint32_t block = reg.freeBlocks[pick];
    // Swap-and-pop: free-pool order carries no meaning, so the O(n)
    // middle-erase is not worth paying.
    reg.freeBlocks[pick] = reg.freeBlocks.back();
    reg.freeBlocks.pop_back();

    if (want_slc && fbst_[block].slcFrames != framesPerBlock_) {
        for (std::uint16_t f = 0; f < framesPerBlock_; ++f)
            dev.requestFrameMode(block, f, DensityMode::SLC);
        if (!eraseBlockTracked(block, time_sink)) {
            // Reformat erase failed: the block just retired itself;
            // try the next free block (recursion bounded by the free
            // list length).
            return takeFreeBlock(region, want_slc, time_sink);
        }
    }
    return block;
}

std::optional<std::uint64_t>
FlashCache::allocateSlot(int region, bool want_slc, Seconds& time_sink)
{
    Region& reg = regions_[region];
    Region::Cursor& cur = reg.cursor[want_slc ? 1 : 0];

    for (int guard = 0; guard < 1 << 20; ++guard) {
        if (cur.block == kNoBlock) {
            const auto blk = takeFreeBlock(region, want_slc, time_sink);
            if (!blk)
                return std::nullopt;
            cur.block = *blk;
            cur.frame = 0;
            cur.sub = 0;
        }
        if (cur.frame >= framesPerBlock_) {
            // Block fully programmed: becomes an eviction candidate.
            lruTouch(reg, cur.block);
            cur.block = kNoBlock;
            continue;
        }
        const PageAddress a{cur.block, cur.frame, cur.sub};
        const std::uint64_t id = pageId(a);
        cursorNext(cur);
        if (fpst_[id].state != PageState::Free)
            continue;
        return id;
    }
    panic("allocateSlot failed to converge");
}

FlashCache::InstallResult
FlashCache::installPage(std::uint64_t id, Lba lba, bool dirty,
                       std::uint8_t access_count,
                       const std::uint8_t* data, Seconds& time_sink)
{
    Seconds total = 0.0;
    for (int attempt = 0; ; ++attempt) {
        FpstEntry& e = fpst_[id];
        if (e.state != PageState::Free)
            panic("installPage into non-free slot");

        const PageAddress addr = addressOf(id);
        e.mode = ctrl_->device().frameMode(addr.block, addr.frame);

        // Every program draws a sequence number; only a payload
        // program stores it (in the OOB record).
        const OobRecord oob{lba, nextSeq_++,
                            static_cast<std::uint8_t>(regionOf(addr.block)),
                            dirty, e.eccStrength};
        const ControllerWriteResult wres = ctrl_->writePage(
            addr, descOf(e), data, data ? &oob : nullptr);
        total += wres.latency;

        e.lba = lba;
        e.state = PageState::Valid;
        e.accessCount = access_count;
        e.dirty = dirty;

        FbstEntry& fb = fbst_[addr.block];
        ++fb.validPages;
        ++regions_[regionOf(addr.block)].validCount;

        if (!wres.failed)
            return {id, total};

        // Program-status failure: the slot holds garbage. Mark it
        // invalid (normal out-of-place bookkeeping), queue the block
        // for retirement, and re-program on a fresh slot.
        ++stats_.programFailReprograms;
        invalidatePage(id, false);
        if (std::find(pendingRetire_.begin(), pendingRetire_.end(),
                      addr.block) == pendingRetire_.end()) {
            pendingRetire_.push_back(addr.block);
        }
        if (attempt >= 3)
            fatal("repeated program failures; flash is unusable");
        const int region = regionOf(addr.block);
        const bool want_slc = e.mode == DensityMode::SLC;
        const auto slot = allocateSlot(region, want_slc, time_sink);
        if (!slot)
            fatal("no free slot to re-program after a program "
                  "failure");
        id = *slot;
    }
}

void
FlashCache::invalidatePage(std::uint64_t id, bool drop_mapping)
{
    FpstEntry& e = fpst_[id];
    if (e.state != PageState::Valid)
        panic("invalidatePage on non-valid page");
    if (drop_mapping)
        fcht_.erase(e.lba);
    e.state = PageState::Invalid;
    e.dirty = false;

    const std::uint32_t block = blockOf(id);
    FbstEntry& fb = fbst_[block];
    --fb.validPages;
    ++fb.invalidPages;
    Region& reg = regions_[regionOf(block)];
    --reg.validCount;
    ++reg.invalidCount;
    if (reg.lruBlocks.contains(block)) {
        gcBucketShift(reg, block,
                      static_cast<std::uint16_t>(fb.invalidPages - 1));
    }
}

// ---------------------------------------------------------------------
// GC victim bookkeeping. Every lruBlocks membership change routes
// through lruTouch/lruErase/lruClear so the per-invalid-count buckets
// (links in gcPrev_/gcNext_, heads per region) always hold exactly
// the LRU-resident blocks. invalidatePage moves a block between
// buckets; gcPickVictim then finds the seed-identical victim without
// scanning the region.
// ---------------------------------------------------------------------

void
FlashCache::gcBucketInsert(Region& reg, std::uint32_t block)
{
    const std::uint16_t c = fbst_[block].invalidPages;
    gcPrev_[block] = kNoBlock;
    gcNext_[block] = reg.gcBucketHead[c];
    if (gcNext_[block] != kNoBlock)
        gcPrev_[gcNext_[block]] = block;
    reg.gcBucketHead[c] = block;
    if (c > reg.gcMaxInvalid)
        reg.gcMaxInvalid = c;
}

void
FlashCache::gcBucketRemove(Region& reg, std::uint32_t block)
{
    const std::uint16_t c = fbst_[block].invalidPages;
    if (gcPrev_[block] != kNoBlock)
        gcNext_[gcPrev_[block]] = gcNext_[block];
    else
        reg.gcBucketHead[c] = gcNext_[block];
    if (gcNext_[block] != kNoBlock)
        gcPrev_[gcNext_[block]] = gcPrev_[block];
    gcPrev_[block] = gcNext_[block] = kNoBlock;
}

void
FlashCache::gcBucketShift(Region& reg, std::uint32_t block,
                          std::uint16_t old_count)
{
    // Unlink from the old bucket (the head update needs the index the
    // block was filed under), then insert at the current count.
    if (gcPrev_[block] != kNoBlock)
        gcNext_[gcPrev_[block]] = gcNext_[block];
    else
        reg.gcBucketHead[old_count] = gcNext_[block];
    if (gcNext_[block] != kNoBlock)
        gcPrev_[gcNext_[block]] = gcPrev_[block];
    gcBucketInsert(reg, block);
}

void
FlashCache::lruTouch(Region& reg, std::uint32_t block)
{
    if (!reg.lruBlocks.contains(block))
        gcBucketInsert(reg, block);
    reg.lruBlocks.touch(block);
}

bool
FlashCache::lruErase(Region& reg, std::uint32_t block)
{
    if (!reg.lruBlocks.erase(block))
        return false;
    gcBucketRemove(reg, block);
    return true;
}

void
FlashCache::lruClear(Region& reg)
{
    reg.lruBlocks.clear();
    std::fill(reg.gcBucketHead.begin(), reg.gcBucketHead.end(),
              kNoBlock);
    reg.gcMaxInvalid = 0;
}

std::uint32_t
FlashCache::gcPickVictim(Region& reg)
{
    // Lazy decay of the bucket upper bound: each downward step was
    // paid for by the increment that raised the bound, so the pick
    // stays O(1) amortized.
    std::uint32_t m = reg.gcMaxInvalid;
    while (m > 0 && reg.gcBucketHead[m] == kNoBlock)
        --m;
    reg.gcMaxInvalid = m;
    if (m == 0)
        return kNoBlock;
    const std::uint32_t head = reg.gcBucketHead[m];
    if (gcNext_[head] == kNoBlock)
        return head; // singleton top bucket: exact O(1) pick
    // Tie at the top count: the seed scan returned the first
    // max-count block in MRU order, so replicate that with an
    // early-exit walk.
    for (const std::uint32_t b : reg.lruBlocks) {
        if (fbst_[b].invalidPages == m)
            return b;
    }
    panic("GC bucket holds a block missing from the LRU");
}

bool
FlashCache::eraseBlockTracked(std::uint32_t block, Seconds& time_sink)
{
    // Erases are always charged to a stats sink, never to request
    // latency, so they always queue as background work.
    const sched::BackgroundScope bg(ctrl_->demandSink());
    FlashDevice& dev = ctrl_->device();
    FbstEntry& fb = fbst_[block];
    Region& reg = regions_[regionOf(block)];

    if (fb.validPages != 0)
        panic("erasing block with live pages");

    const auto er = ctrl_->eraseBlock(block);
    time_sink += er.latency;

    // Free every slot and reconcile the FPST with the frame modes
    // (a successful erase applies pending mode changes; a failed one
    // leaves them as they were) and the block's density statistics.
    std::uint16_t slc = 0;
    for (std::uint16_t f = 0; f < framesPerBlock_; ++f) {
        const DensityMode m = dev.frameMode(block, f);
        if (m == DensityMode::SLC)
            ++slc;
        for (std::uint8_t sub = 0; sub < 2; ++sub) {
            FpstEntry& e = fpst_[pageId({block, f, sub})];
            e.state = PageState::Free;
            e.lba = kInvalidLba;
            e.dirty = false;
            e.accessCount = 0;
            e.mode = m;
        }
    }
    fb.slcFrames = slc;
    reg.invalidCount -= fb.invalidPages;
    fb.invalidPages = 0;
    if (!er.failed)
        return true;

    // Erase verify failed: retire in place. The region's capacity
    // shrinks; pages stay unusable (never handed to a free list).
    ++stats_.eraseFailRetirements;
    fb.retired = true;
    fb.region = -1;
    ++stats_.retiredBlocks;
    return false;
}

ControllerReadResult
FlashCache::readWithRetry(const PageAddress& addr,
                          const PageDescriptor& desc, std::uint8_t* out)
{
    ControllerReadResult res = ctrl_->readPage(addr, desc, out);
    if (res.status == ReadStatus::Uncorrectable &&
        ctrl_->device().hardErrors(addr) <= desc.eccStrength) {
        // Transient flips pushed the word past the code strength;
        // the driver re-reads before giving the page up.
        ++stats_.eccRetryReads;
        const ControllerReadResult retry = ctrl_->readPage(addr, desc,
                                                           out);
        const Seconds first = res.latency;
        res = retry;
        res.latency += first;
    }
    return res;
}

std::optional<std::uint64_t>
FlashCache::relocatePage(std::uint64_t id, bool want_slc,
                         Seconds& time_sink)
{
    const PageAddress addr = addressOf(id);
    std::uint8_t* const buf = payloadBuf();
    const ControllerReadResult res = readWithRetry(addr, descOf(fpst_[id]),
                                                   buf);
    time_sink += res.latency;

    if (res.status == ReadStatus::Uncorrectable) {
        ++stats_.uncorrectableReads;
        dropPage(id);
        return std::nullopt;
    }

    const auto slot = allocateSlot(regionOf(addr.block), want_slc,
                                   time_sink);
    if (!slot)
        return std::nullopt;
    return movePage(id, *slot, buf, time_sink);
}

std::uint64_t
FlashCache::movePage(std::uint64_t id, std::uint64_t dst,
                     const std::uint8_t* buf, Seconds& time_sink)
{
    const FpstEntry& e = fpst_[id];
    const Lba lba = e.lba;
    const bool dirty = e.dirty;
    const std::uint8_t count = e.accessCount;

    invalidatePage(id, false); // mapping moves, not dropped
    const auto inst = installPage(dst, lba, dirty, count, buf, time_sink);
    time_sink += inst.latency;
    fcht_.update(lba, inst.id);
    ++stats_.gcPageCopies;
    return inst.id;
}

bool
FlashCache::garbageCollect(int region)
{
    Region& reg = regions_[region];

    // Paper section 5.1: only worth reclaiming when a whole block's
    // worth of invalid pages exists somewhere in the region (a
    // mostly-MLC block holds two pages per frame).
    if (reg.invalidCount < 2ull * framesPerBlock_)
        return false;

    const sched::BackgroundScope bg(ctrl_->demandSink());
    const std::uint32_t victim = gcPickVictim(reg);
    if (victim == kNoBlock)
        return false;
    const std::uint16_t best = fbst_[victim].invalidPages;

    // A victim that is mostly valid costs more page copies than the
    // space it frees is worth; let the caller evict (flush) instead.
    if (static_cast<double>(best) <
        config_.gcMinInvalidFraction * blockPageSlots(victim)) {
        return false;
    }

    // Section 3.6 applies wear-leveling to "capacity writes" — the
    // out-of-place writes whose reclamation erases blocks — so the
    // GC victim is also checked against the globally newest block.
    if (config_.wearLeveling && tryWearSwap(victim))
        return true;

    ++stats_.gcRuns;
    // Relocate every valid page, then erase.
    for (std::uint16_t f = 0; f < framesPerBlock_; ++f) {
        for (std::uint8_t sub = 0; sub < 2; ++sub) {
            const std::uint64_t id = pageId({victim, f, sub});
            if (fpst_[id].state != PageState::Valid)
                continue;
            const bool keep_slc = fpst_[id].mode == DensityMode::SLC;
            const auto moved = relocatePage(id, keep_slc, stats_.gcTime);
            if (!moved && fpst_[id].state == PageState::Valid) {
                // Out of space: flush (if dirty) and drop instead.
                if (fpst_[id].dirty)
                    flushPage(id, stats_.gcTime);
                dropPage(id);
            }
        }
    }
    lruErase(reg, victim);
    if (eraseBlockTracked(victim, stats_.gcTime)) {
        ++stats_.gcErases;
        reg.freeBlocks.push_back(victim);
    }
    return true;
}

bool
FlashCache::reclaimBlock(std::uint32_t block, Seconds& time_sink)
{
    for (std::uint16_t f = 0; f < framesPerBlock_; ++f) {
        for (std::uint8_t sub = 0; sub < 2; ++sub) {
            const std::uint64_t id = pageId({block, f, sub});
            const FpstEntry& e = fpst_[id];
            if (e.state != PageState::Valid)
                continue;
            if (e.dirty)
                flushPage(id, time_sink);
            dropPage(id);
        }
    }
    return eraseBlockTracked(block, time_sink);
}

bool
FlashCache::evictBlock(int region)
{
    Region& reg = regions_[region];
    if (reg.lruBlocks.empty())
        return false;

    const sched::BackgroundScope bg(ctrl_->demandSink());

    std::uint32_t victim = reg.lruBlocks.lru();

    if (config_.wearLeveling && tryWearSwap(victim))
        return true;

    ++stats_.evictions;
    lruErase(reg, victim);
    if (reclaimBlock(victim, stats_.evictionTime))
        reg.freeBlocks.push_back(victim);
    return true;
}

bool
FlashCache::tryWearSwap(std::uint32_t victim)
{
    // Section 3.6: if the chosen victim is much more worn than the
    // globally newest block, migrate the newest block's content into
    // the victim and evict (erase) the newest block instead.
    const FlashDevice& dev = ctrl_->device();
    std::uint32_t newest = kNoBlock;
    double newest_wear = std::numeric_limits<double>::infinity();
    for (int r = 0; r < 2; ++r) {
        for (const std::uint32_t b : regions_[r].lruBlocks) {
            const double w = fbst_[b].wearOut(dev.blockEraseCount(b));
            if (w < newest_wear) {
                newest_wear = w;
                newest = b;
            }
        }
    }
    const double victim_wear =
        fbst_[victim].wearOut(dev.blockEraseCount(victim));
    if (newest == kNoBlock || newest == victim ||
        victim_wear - newest_wear <= config_.wearThreshold) {
        return false;
    }
    wearLevelSwap(victim, newest);
    return true;
}

void
FlashCache::wearLevelSwap(std::uint32_t victim, std::uint32_t newest)
{
    const sched::BackgroundScope bg(ctrl_->demandSink());
    // Evict the victim's content, migrate the newest (coldest-wear)
    // block's content into the now-empty victim, then hand the
    // freshly erased newest block to the victim's region.
    const int victim_region = regionOf(victim);
    const int newest_region = regionOf(newest);
    Region& vreg = regions_[victim_region];
    Region& nreg = regions_[newest_region];

    ++stats_.evictions;
    ++stats_.wearMigrations;

    lruErase(vreg, victim);
    if (!reclaimBlock(victim, stats_.evictionTime)) {
        // The worn victim died on its erase and retired in place;
        // there is no empty block to migrate into, so leave the
        // newest block where it is.
        return;
    }

    // Copy newest's valid pages into the victim block sequentially.
    Region::Cursor cur{victim, 0, 0};
    bool space = true;
    for (std::uint16_t f = 0; f < framesPerBlock_; ++f) {
        for (std::uint8_t sub = 0; sub < 2; ++sub) {
            const std::uint64_t id = pageId({newest, f, sub});
            FpstEntry& e = fpst_[id];
            if (e.state != PageState::Valid)
                continue;

            std::uint64_t dst = 0;
            bool have = false;
            while (space) {
                if (cur.frame >= framesPerBlock_) {
                    space = false;
                    break;
                }
                const std::uint64_t cand = pageId(
                    {victim, cur.frame, cur.sub});
                cursorNext(cur);
                if (fpst_[cand].state == PageState::Free) {
                    dst = cand;
                    have = true;
                    break;
                }
            }

            // The read happens even when the victim has no free slot
            // left; that wasted read is part of the modeled timing.
            std::uint8_t* const buf = payloadBuf();
            const auto res = readWithRetry(addressOf(id), descOf(e), buf);
            stats_.evictionTime += res.latency;

            if (res.status == ReadStatus::Uncorrectable) {
                ++stats_.uncorrectableReads;
                dropPage(id);
            } else if (!have) {
                // Flush dirty data rather than lose it; clean pages
                // just drop (they are cache copies).
                if (e.dirty)
                    writeBack(e, buf);
                dropPage(id);
            } else {
                movePage(id, dst, buf, stats_.evictionTime);
            }
        }
    }

    // The victim block (now holding the migrated content) joins the
    // newest block's region as the most recently used block.
    lruErase(nreg, newest);
    const bool newest_ok = eraseBlockTracked(newest,
                                             stats_.evictionTime);

    // The blocks trade regions (a newest block whose erase failed
    // retired instead). The victim's freshly installed pages move to
    // the new owner's counters (they were accounted under the old
    // region above).
    fbst_[victim].region = static_cast<std::int8_t>(newest_region);
    if (victim_region != newest_region) {
        vreg.validCount -= fbst_[victim].validPages;
        nreg.validCount += fbst_[victim].validPages;
        vreg.invalidCount -= fbst_[victim].invalidPages;
        nreg.invalidCount += fbst_[victim].invalidPages;
    }
    lruTouch(nreg, victim);
    if (newest_ok) {
        fbst_[newest].region = static_cast<std::int8_t>(victim_region);
        vreg.freeBlocks.push_back(newest);
    }
}

void
FlashCache::retireBlock(std::uint32_t block)
{
    const sched::BackgroundScope bg(ctrl_->demandSink());
    const int r = regionOf(block);
    Region& reg = regions_[r];

    // A cursor block cannot be retired in place; reset the cursor.
    for (auto& cur : reg.cursor) {
        if (cur.block == block)
            cur.block = kNoBlock;
    }
    lruErase(reg, block);
    const auto it = std::find(reg.freeBlocks.begin(),
                              reg.freeBlocks.end(), block);
    if (it != reg.freeBlocks.end()) {
        *it = reg.freeBlocks.back();
        reg.freeBlocks.pop_back();
    }

    if (reclaimBlock(block, stats_.evictionTime)) {
        fbst_[block].retired = true;
        fbst_[block].region = -1;
        ++stats_.retiredBlocks;
    }
    // else: the erase itself failed and already retired the block.
}

double
FlashCache::pageAccessFreq(const FpstEntry& e) const
{
    const double denom = static_cast<double>(
        std::max<std::uint64_t>(windowReads_, 256));
    return std::min(1.0, static_cast<double>(e.accessCount) / denom);
}

void
FlashCache::maybeReconfigure(std::uint64_t id,
                             const ControllerReadResult& res)
{
    // Runs after the hit latency is already recorded: any copies it
    // makes are maintenance, invisible to this request's latency.
    const sched::BackgroundScope bg(ctrl_->demandSink());
    FpstEntry& e = fpst_[id];

    // Trigger 1 (section 5.2.1): the corrected-error count reached
    // the page's code strength — the next failing cell would be
    // unrecoverable, so reconfigure now. The paper requires errors
    // that "fail consistently due to wear out": transient (soft)
    // flips must not permanently reconfigure the page, so the
    // persistent error count is confirmed against the medium.
    if (config_.adaptiveReconfig && res.status == ReadStatus::Corrected &&
        res.correctedBits >= e.eccStrength &&
        ctrl_->device().hardErrors(addressOf(id)) >= e.eccStrength) {
        ReconfigInputs in;
        in.pageAccessFreq = pageAccessFreq(e);
        in.missRate = stats_.fgst.recentMissRate();
        in.missPenalty = stats_.fgst.missPenalty.count()
            ? stats_.fgst.avgMissPenalty() : milliseconds(4.2);
        in.hitLatency = stats_.fgst.avgHitLatency();
        in.deltaCodeDelay =
            ctrl_->decodeLatency(std::min<unsigned>(e.eccStrength + 1,
                                                    config_.maxEccStrength))
            - ctrl_->decodeLatency(e.eccStrength);
        const FlashTiming& t = ctrl_->device().timing();
        in.deltaSlcGain = t.mlcReadLatency - t.slcReadLatency;
        // The miss cost of losing one page of capacity depends on
        // how alive the capacity margin is: scale the per-page miss
        // share by the fraction of hits still landing on cold pages
        // (near zero for short-tailed workloads whose tail is dead).
        in.deltaMiss = in.missRate *
            (4.0 * stats_.fgst.marginalHitFraction()) /
            static_cast<double>(std::max<std::uint64_t>(capacityPages(),
                                                        1));
        in.canIncreaseEcc = e.eccStrength < config_.maxEccStrength;
        in.canSwitchToSlc = e.mode == DensityMode::MLC;

        const ReconfigCosts costs = ReconfigPolicy::costs(in);
        stats_.faultPageFreq.add(in.pageAccessFreq);
        stats_.faultEccCost.add(costs.strongerEcc);
        stats_.faultDensityCost.add(costs.densitySwitch);

        switch (ReconfigPolicy::onFaultIncrease(in)) {
          case ReconfigDecision::IncreaseEcc:
            ++e.eccStrength;
            ++fbst_[blockOf(id)].totalEcc;
            ++stats_.eccReconfigs;
            ++stats_.policyEccChoices;
            break;
          case ReconfigDecision::SwitchToSlc: {
            const PageAddress addr = addressOf(id);
            ctrl_->device().requestFrameMode(addr.block, addr.frame,
                                             DensityMode::SLC);
            const auto moved = relocatePage(id, true,
                                            stats_.reconfigTime);
            ++stats_.densityReconfigs;
            ++stats_.policyDensityChoices;
            if (!moved && fpst_[id].state == PageState::Valid &&
                e.eccStrength < config_.maxEccStrength) {
                // No SLC slot available; fall back to stronger ECC.
                ++e.eccStrength;
                ++fbst_[blockOf(id)].totalEcc;
            }
            return; // id may be stale after relocation
          }
          case ReconfigDecision::RetireBlock:
            retireBlock(blockOf(id));
            return;
        }
    }

    // Trigger 2 (section 5.2.2): the access counter saturated on an
    // MLC page — migrate it to a fast SLC page.
    if (config_.hotPageMigration && e.mode == DensityMode::MLC &&
        e.accessCount >= config_.accessSaturation) {
        const auto moved = relocatePage(id, true, stats_.reconfigTime);
        if (moved)
            ++stats_.hotMigrations;
    }
}

void
FlashCache::maybeAge()
{
    if (++readsSinceAging_ < config_.agingWindow)
        return;
    readsSinceAging_ = 0;
    for (FpstEntry& e : fpst_)
        e.accessCount = static_cast<std::uint8_t>(e.accessCount >> 1);
    windowReads_ >>= 1;
}

CacheAccessResult
FlashCache::read(Lba lba)
{
    return readImpl(lba, nullptr);
}

CacheAccessResult
FlashCache::readData(Lba lba, std::uint8_t* data)
{
    if (!config_.realData)
        fatal("readData requires realData mode");
    return readImpl(lba, data);
}

CacheAccessResult
FlashCache::readImpl(Lba lba, std::uint8_t* data)
{
    maybeAge();
    ++windowReads_;

    CacheAccessResult out;
    const std::uint64_t id = fcht_.find(lba);

    if (id != Fcht::npos && fpst_[id].state == PageState::Valid) {
        FpstEntry& e = fpst_[id];
        const PageAddress addr = addressOf(id);
        const ControllerReadResult res = readWithRetry(addr, descOf(e),
                                                       data);

        if (res.status != ReadStatus::Uncorrectable) {
            stats_.fgst.recordHitPageCount(e.accessCount);
            if (e.accessCount < 255)
                ++e.accessCount;
            Region& reg = regions_[regionOf(addr.block)];
            if (reg.lruBlocks.contains(addr.block))
                reg.lruBlocks.touch(addr.block);

            stats_.fgst.recordRead(true);
            stats_.fgst.hitLatency.add(res.latency);
            out.hit = true;
            out.latency = res.latency;
            maybeReconfigure(id, res);
            drainPendingRetires();
            return out;
        }

        // Uncorrectable: the cached copy is lost; fall back to disk.
        ++stats_.uncorrectableReads;
        dropPage(id);
        out.latency += res.latency;
        const bool persistent = ctrl_->device().hardErrors(addr) >
            e.eccStrength;
        if (!persistent) {
            // A freak transient double-failure: the medium itself is
            // fine, so no descriptor change is warranted.
        } else if (config_.adaptiveReconfig) {
            // Make the slot safer before its next use.
            if (e.eccStrength < config_.maxEccStrength) {
                ++e.eccStrength;
                ++fbst_[blockOf(id)].totalEcc;
                ++stats_.eccReconfigs;
            } else if (e.mode == DensityMode::MLC) {
                ctrl_->device().requestFrameMode(addr.block, addr.frame,
                                                 DensityMode::SLC);
                ++stats_.densityReconfigs;
            } else {
                retireBlock(addr.block);
            }
        } else {
            // Fixed-strength controller (Figure 12's BCH-1
            // baseline): a page that fails at the only available
            // strength is permanently unusable, so the block is
            // removed (section 5.2).
            retireBlock(addr.block);
        }
    }

    // Miss path: fetch from disk and fill the read region.
    stats_.fgst.recordRead(false);
    bool fill_failed = false;
    const Seconds penalty = data
        ? payloadStore_->readData(lba, data, fill_failed)
        : store_->read(lba);
    stats_.fgst.missPenalty.add(penalty);
    out.latency += penalty;
    if (fill_failed) {
        // The backing store could not read the page; serve the
        // failure up the stack rather than caching garbage.
        ++stats_.diskFillFailures;
        drainPendingRetires();
        return out;
    }

    {
        // The fill program happens off the request's critical path
        // (its latency is not charged to the read), so its device
        // ops queue as background work.
        const sched::BackgroundScope bg(ctrl_->demandSink());
        const int fill_region = kRead;
        auto slot = allocateSlot(fill_region, false, stats_.evictionTime);
        for (int attempt = 0; !slot && attempt < 4; ++attempt) {
            if (!garbageCollectIfUseful(fill_region) &&
                !evictBlock(fill_region)) {
                break;
            }
            slot = allocateSlot(fill_region, false, stats_.evictionTime);
        }
        if (slot) {
            const auto inst = installPage(*slot, lba, false, 1, data,
                                          stats_.evictionTime);
            fcht_.insert(lba, inst.id);
            replenishReserve(fill_region);
        }
    }
    drainPendingRetires();
    return out;
}

void
FlashCache::replenishReserve(int region)
{
    if (regions_[region].freeBlocks.size() <= 1)
        garbageCollect(region);
}

bool
FlashCache::garbageCollectIfUseful(int region)
{
    // The read region only GCs once enough invalid pages accumulated
    // (capacity below the configured threshold, section 5.1).
    const Region& reg = regions_[region];
    const double total = static_cast<double>(reg.ownedBlocks()) *
        framesPerBlock_ * 2;
    if (total <= 0)
        return false;
    if (static_cast<double>(reg.invalidCount) / total <
        kReadGcInvalidFraction) {
        return false;
    }
    return garbageCollect(region);
}

CacheAccessResult
FlashCache::write(Lba lba)
{
    return writeImpl(lba, nullptr);
}

CacheAccessResult
FlashCache::writeData(Lba lba, const std::uint8_t* data)
{
    if (!config_.realData)
        fatal("writeData requires realData mode");
    return writeImpl(lba, data);
}

CacheAccessResult
FlashCache::writeImpl(Lba lba, const std::uint8_t* data)
{
    CacheAccessResult out;
    const int wr = config_.splitRegions ? kWrite : kRead;

    const std::uint64_t id = fcht_.find(lba);
    bool invalidated_in_read = false;
    std::uint8_t carried_count = 1;
    if (id != Fcht::npos && fpst_[id].state == PageState::Valid) {
        out.hit = true;
        stats_.fgst.writes.hit();
        const int old_region = regionOf(blockOf(id));
        invalidated_in_read = old_region == kRead && config_.splitRegions;
        // The page's access history survives the out-of-place
        // update; a frequently rewritten page is "frequently
        // accessed" for the section 5.2 heuristics too.
        if (fpst_[id].accessCount < 255)
            carried_count = fpst_[id].accessCount + 1;
        else
            carried_count = 255;
        invalidatePage(id, true);
    } else {
        stats_.fgst.writes.miss();
    }

    auto slot = allocateSlot(wr, false, stats_.evictionTime);
    for (int attempt = 0; !slot && attempt < 6; ++attempt) {
        // Section 5.1: GC is the common case; eviction only when a
        // block's worth of invalid pages does not exist.
        if (!garbageCollect(wr) && !evictBlock(wr))
            break;
        slot = allocateSlot(wr, false, stats_.evictionTime);
    }
    if (!slot)
        fatal("write region out of space and unreclaimable");

    const auto inst = installPage(*slot, lba, true, carried_count, data,
                                  stats_.evictionTime);
    out.latency += inst.latency;
    fcht_.insert(lba, inst.id);

    // Keep a one-block reserve so the next GC has somewhere to
    // relocate valid pages to (GC itself is still on-demand: it
    // only runs when a block's worth of invalid pages exists).
    replenishReserve(wr);

    // Out-of-place writes eat read-region capacity; compact when the
    // invalid fraction passes the threshold (section 5.1).
    if (invalidated_in_read)
        garbageCollectIfUseful(kRead);

    drainPendingRetires();
    return out;
}

bool
FlashCache::flushPage(std::uint64_t id, Seconds& time_sink)
{
    FpstEntry& e = fpst_[id];
    std::uint8_t* const buf = payloadBuf();
    const auto res = readWithRetry(addressOf(id), descOf(e), buf);
    time_sink += res.latency;
    if (res.status == ReadStatus::Uncorrectable) {
        ++stats_.uncorrectableReads;
        return false;
    }
    writeBack(e, buf);
    return true;
}

void
FlashCache::writeBack(FpstEntry& e, const std::uint8_t* buf)
{
    // A payload flush carries a generation tag (the next sequence
    // number) so recovery can tell the disk copy is newer.
    bool wfail = false;
    if (payloadStore_)
        payloadStore_->writeTagged(e.lba, buf, nextSeq_++, wfail);
    else
        store_->write(e.lba);
    if (wfail) {
        ++stats_.diskFlushFailures;
        return;
    }
    ++stats_.evictionFlushes;
    e.dirty = false;
}

void
FlashCache::dropPage(std::uint64_t id)
{
    if (fpst_[id].dirty)
        ++stats_.dataLossPages;
    invalidatePage(id, true);
}

void
FlashCache::flushAll()
{
    const sched::BackgroundScope bg(ctrl_->demandSink());
    for (std::uint64_t id = 0; id < fpst_.size(); ++id) {
        const FpstEntry& e = fpst_[id];
        // A page whose disk write failed stays valid and dirty (flash
        // still holds the only good copy); an unreadable one is lost.
        if (e.state == PageState::Valid && e.dirty &&
            !flushPage(id, stats_.evictionTime)) {
            dropPage(id);
        }
    }
    drainPendingRetires();
}

void
FlashCache::drainPendingRetires()
{
    while (!pendingRetire_.empty()) {
        const std::uint32_t b = pendingRetire_.back();
        pendingRetire_.pop_back();
        // Retirement itself can queue more failures; a block may also
        // already be gone by the time its turn comes.
        if (fbst_[b].retired || fbst_[b].region < 0)
            continue;
        retireBlock(b);
    }
}

std::uint64_t
FlashCache::capacityPages() const
{
    std::uint64_t pages = 0;
    for (std::uint32_t b = 0; b < numBlocks_; ++b) {
        if (!fbst_[b].retired)
            pages += blockPageSlots(b);
    }
    return pages;
}

std::uint64_t
FlashCache::validPages() const
{
    return regions_[0].validCount + regions_[1].validCount;
}

std::uint64_t
FlashCache::invalidPages() const
{
    return regions_[0].invalidCount + regions_[1].invalidCount;
}

double
FlashCache::occupancy() const
{
    const std::uint64_t cap = capacityPages();
    return cap ? static_cast<double>(validPages()) /
        static_cast<double>(cap) : 0.0;
}

std::uint32_t
FlashCache::liveBlocks() const
{
    return numBlocks_ - static_cast<std::uint32_t>(stats_.retiredBlocks);
}

bool
FlashCache::failed() const
{
    return regions_[kRead].ownedBlocks() < 2 ||
        (config_.splitRegions && regions_[kWrite].ownedBlocks() < 2);
}

double
FlashCache::gcOverheadFraction() const
{
    const Seconds busy = ctrl_->device().stats().busyTime +
        ctrl_->stats().eccTime;
    return busy > 0.0 ? stats_.gcTime / busy : 0.0;
}

const FpstEntry&
FlashCache::fpstEntry(std::uint64_t page_id) const
{
    return fpst_.at(page_id);
}

void
FlashCache::checkInvariants() const
{
    // One block-major pass over the FPST and the frame modes. Each
    // block's counts are compared as the walk leaves it, but the
    // first mismatching block is reported only after the whole-cache
    // totals, so every fault names the same check it always has.
    const FlashDevice& dev = ctrl_->device();
    std::uint64_t valid = 0, invalid = 0;
    const char* bad_counts = nullptr;
    bool bad_slc = false, bad_mode = false;
    for (std::uint32_t b = 0; b < numBlocks_; ++b) {
        std::uint64_t nvalid = 0, ninvalid = 0;
        std::uint32_t slc = 0;
        for (std::uint16_t f = 0; f < framesPerBlock_; ++f) {
            const DensityMode m = dev.frameMode(b, f);
            slc += m == DensityMode::SLC;
            const std::uint64_t first = pageId({b, f, 0});
            for (std::uint64_t id = first; id < first + 2; ++id) {
                const FpstEntry& e = fpst_[id];
                bad_mode |= e.mode != m;
                if (e.state == PageState::Valid) {
                    ++nvalid;
                    if (fcht_.find(e.lba) != id)
                        panic("FCHT does not map a valid page's LBA back");
                } else if (e.state == PageState::Invalid) {
                    ++ninvalid;
                }
            }
        }
        valid += nvalid;
        invalid += ninvalid;
        const FbstEntry& fb = fbst_[b];
        if (!bad_counts && nvalid != fb.validPages)
            bad_counts = "FBST valid count mismatch";
        else if (!bad_counts && ninvalid != fb.invalidPages)
            bad_counts = "FBST invalid count mismatch";
        // blockPageSlots() reads the FBST's SLC frame count.
        bad_slc |= slc != fb.slcFrames;
    }
    if (valid != validPages())
        panic("valid page count mismatch");
    if (invalid != invalidPages())
        panic("invalid page count mismatch");
    if (bad_counts)
        panic(bad_counts);
    if (fcht_.size() != valid)
        panic("FCHT size != valid pages");
    if (bad_slc)
        panic("FBST SLC frame count disagrees with the frame modes");
    if (bad_mode)
        panic("FPST density mode disagrees with the frame mode");

    // GC bucket invariants: the buckets partition exactly the
    // LRU-resident blocks by invalid-page count, gcMaxInvalid bounds
    // every occupied bucket, and the bucket-based victim pick agrees
    // with the seed's full-region scan.
    for (const Region& reg : regions_) {
        std::size_t bucketed = 0;
        for (std::size_t c = 0; c < reg.gcBucketHead.size(); ++c) {
            for (std::uint32_t b = reg.gcBucketHead[c]; b != kNoBlock;
                 b = gcNext_[b]) {
                ++bucketed;
                if (fbst_[b].invalidPages != c)
                    panic("GC bucket index != block invalid count");
                if (!reg.lruBlocks.contains(b))
                    panic("GC bucket holds a non-LRU block");
                if (c > reg.gcMaxInvalid)
                    panic("GC bucket above the tracked maximum");
            }
        }
        if (bucketed != reg.lruBlocks.size())
            panic("GC buckets out of sync with the LRU");

        std::uint32_t seed_victim = kNoBlock;
        std::uint16_t best = 0;
        for (const std::uint32_t b : reg.lruBlocks) {
            if (fbst_[b].invalidPages > best) {
                best = fbst_[b].invalidPages;
                seed_victim = b;
            }
        }
        std::uint32_t m = reg.gcMaxInvalid;
        while (m > 0 && reg.gcBucketHead[m] == kNoBlock)
            --m;
        std::uint32_t bucket_victim = kNoBlock;
        if (m > 0) {
            bucket_victim = reg.gcBucketHead[m];
            if (gcNext_[bucket_victim] != kNoBlock) {
                for (const std::uint32_t b : reg.lruBlocks) {
                    if (fbst_[b].invalidPages == m) {
                        bucket_victim = b;
                        break;
                    }
                }
            }
        }
        if (seed_victim != bucket_victim)
            panic("GC victim pick diverges from the seed scan");
    }

    // Every usable block sits in exactly one free list, LRU or open
    // cursor, of the region its FBST entry names; a retired block
    // (region -1) in none.
    std::vector<std::uint8_t> listed(numBlocks_, 0);
    for (int r = 0; r < static_cast<int>(regions_.size()); ++r) {
        const Region& reg = regions_[r];
        const auto claim = [&](std::uint32_t b) {
            if (listed[b]++)
                panic("block listed twice across the region lists");
            if (fbst_[b].region != r)
                panic("block listed outside its FBST region");
        };
        for (const std::uint32_t b : reg.freeBlocks)
            claim(b);
        for (const std::uint32_t b : reg.lruBlocks)
            claim(b);
        for (const auto& cur : reg.cursor) {
            if (cur.block != kNoBlock)
                claim(cur.block);
        }
    }
    for (std::uint32_t b = 0; b < numBlocks_; ++b) {
        if (!fbst_[b].retired && !listed[b])
            panic("usable block in no region list");
    }
}

void
FlashCache::deriveTables(bool rebuild_fcht)
{
    // One block-major walk, reading each frame's mode once. The
    // device's linear page order is the FPST's page-id order.
    const FlashDevice& dev = ctrl_->device();
    const std::vector<std::uint8_t>& programmed = dev.programmedFlags();
    for (Region& reg : regions_)
        reg.validCount = reg.invalidCount = 0;
    for (std::uint32_t b = 0; b < numBlocks_; ++b) {
        FbstEntry& fb = fbst_[b];
        if (!fb.retired && fb.region < 0)
            fatal("cache state: usable block in no region list");
        std::uint16_t slc = 0, nvalid = 0, ninvalid = 0;
        // An FPST entry is Free exactly where the device page is
        // unprogrammed (a retired block may keep its old pages), and
        // an SLC frame never programs its second page.
        bool off_device = false;
        for (std::uint16_t f = 0; f < framesPerBlock_; ++f) {
            const DensityMode m = dev.frameMode(b, f);
            const std::uint64_t first = pageId({b, f, 0});
            if (m == DensityMode::SLC) {
                ++slc;
                off_device |= programmed[first + 1] != 0;
            }
            for (std::uint64_t id = first; id < first + 2; ++id) {
                FpstEntry& e = fpst_[id];
                e.mode = m;
                off_device |= (e.state == PageState::Free) ==
                    (programmed[id] != 0);
                if (e.state == PageState::Valid) {
                    ++nvalid;
                    if (rebuild_fcht &&
                        fcht_.insertOrFind(e.lba, id) != Fcht::npos)
                        fatal("cache state: LBA mapped twice");
                } else if (e.state == PageState::Invalid) {
                    ++ninvalid;
                }
            }
        }
        fb.slcFrames = slc;
        fb.validPages = nvalid;
        fb.invalidPages = ninvalid;
        // Every erase, failed or not, frees all of a block's pages.
        if (fb.retired) {
            if (nvalid + ninvalid != 0)
                fatal("cache state: retired block holds a page");
            continue;
        }
        if (off_device)
            fatal("cache state: page states disagree with the device "
                  "(device and cache from different saves?)");
        regions_[fb.region].validCount += nvalid;
        regions_[fb.region].invalidCount += ninvalid;
    }
}

void
FlashCache::saveState(std::ostream& os) const
{
    putMagic(os, "FCCHE003");
    putScalar<std::uint32_t>(os, numBlocks_);
    putScalar<std::uint32_t>(os, framesPerBlock_);
    putScalar<std::uint8_t>(os, config_.splitRegions ? 1 : 0);

    putRecords(os, kFpstRecordBytes, fpst_.size(),
               [this](RecordCursor& r, std::uint64_t id) {
                   const FpstEntry& e = fpst_[id];
                   r.put<std::uint64_t>(e.lba);
                   r.put<std::uint8_t>(static_cast<std::uint8_t>(e.state));
                   r.put<std::uint8_t>(e.eccStrength);
                   r.put<std::uint8_t>(e.accessCount);
                   r.put<std::uint8_t>(e.dirty ? 1 : 0);
               });
    putRecords(os, kFbstRecordBytes, fbst_.size(),
               [this](RecordCursor& r, std::uint64_t block) {
                   r.put<std::uint32_t>(fbst_[block].totalEcc);
                   r.put<std::uint8_t>(fbst_[block].retired ? 1 : 0);
               });
    for (const Region& reg : regions_) {
        putVector(os, reg.freeBlocks);
        std::vector<std::uint32_t> lru(reg.lruBlocks.begin(),
                                       reg.lruBlocks.end());
        putVector(os, lru);
        for (const auto& cur : reg.cursor) {
            putScalar<std::uint32_t>(os, cur.block);
            putScalar<std::uint16_t>(os, cur.frame);
            putScalar<std::uint8_t>(os, cur.sub);
        }
    }
    putScalar<std::uint64_t>(os, windowReads_);
    putScalar<std::uint64_t>(os, nextSeq_);
}

void
FlashCache::loadState(std::istream& is)
{
    expectMagic(is, "FCCHE003");
    if (getScalar<std::uint32_t>(is) != numBlocks_ ||
        getScalar<std::uint32_t>(is) != framesPerBlock_) {
        fatal("cache state file geometry mismatch");
    }
    if ((getScalar<std::uint8_t>(is) != 0) != config_.splitRegions)
        fatal("cache state file split-mode mismatch");

    // The file is untrusted: every value that later indexes a table
    // is range-checked here, before any use.
    const auto check = [](bool ok, const char* what) {
        if (!ok)
            fatal(std::string("cache state file ") + what +
                  " out of range");
    };

    // Valid FPST entries, counted as decoded: the FCHT is sized from
    // this.
    std::uint64_t valid = 0;
    getRecords(is, kFpstRecordBytes, fpst_.size(),
               [&](RecordCursor& r, std::uint64_t id) {
                   FpstEntry& e = fpst_[id];
                   e.lba = r.get<std::uint64_t>();
                   const auto state = r.get<std::uint8_t>();
                   check(state <=
                             static_cast<std::uint8_t>(PageState::Invalid),
                         "page state");
                   e.state = static_cast<PageState>(state);
                   valid += e.state == PageState::Valid;
                   e.eccStrength = r.get<std::uint8_t>();
                   check(e.eccStrength <= config_.maxEccStrength,
                         "ECC strength");
                   e.accessCount = r.get<std::uint8_t>();
                   e.dirty = r.get<std::uint8_t>() != 0;
               });
    getRecords(is, kFbstRecordBytes, fbst_.size(),
               [&](RecordCursor& r, std::uint64_t block) {
                   FbstEntry& b = fbst_[block];
                   b.totalEcc = r.get<std::uint32_t>();
                   b.retired = r.get<std::uint8_t>() != 0;
                   b.region = -1;
               });
    // A block belongs to the region whose free list, LRU or open
    // cursor lists it. One listed twice would be handed out twice; a
    // retired one would come back into use.
    std::array<std::vector<std::uint32_t>, 2> lru;
    for (int r = 0; r < static_cast<int>(regions_.size()); ++r) {
        Region& reg = regions_[r];
        const auto claim = [&](std::uint32_t b, const char* what) {
            check(b < numBlocks_, what);
            if (fbst_[b].region >= 0)
                fatal("cache state file: block listed twice across the "
                      "region lists");
            if (fbst_[b].retired)
                fatal("cache state file: retired block listed");
            fbst_[b].region = static_cast<std::int8_t>(r);
        };
        reg.freeBlocks = getVector<std::uint32_t>(is);
        for (const std::uint32_t b : reg.freeBlocks)
            claim(b, "free-list block");
        reg.freeBlocks.reserve(numBlocks_);
        lru[r] = getVector<std::uint32_t>(is);
        for (const std::uint32_t b : lru[r])
            claim(b, "LRU block");
        for (auto& cur : reg.cursor) {
            cur.block = getScalar<std::uint32_t>(is);
            cur.frame = getScalar<std::uint16_t>(is);
            cur.sub = getScalar<std::uint8_t>(is);
            check(cur.frame <= framesPerBlock_ && cur.sub <= 1,
                  "cursor slot");
            if (cur.block == kNoBlock)
                continue;
            claim(cur.block, "cursor block");
            // Only an MLC frame has a second page to append to.
            check(cur.sub == 0 || cur.frame == framesPerBlock_ ||
                      ctrl_->device().frameMode(cur.block, cur.frame) ==
                          DensityMode::MLC,
                  "cursor slot");
        }
    }
    windowReads_ = getScalar<std::uint64_t>(is);
    nextSeq_ = getScalar<std::uint64_t>(is);

    fcht_ = Fcht();
    fcht_.reserve(valid);
    deriveTables(true);
    // Saved MRU-first; rebuild by inserting coldest-first (the
    // derived FBST supplies the GC bucket counts).
    for (int r = 0; r < static_cast<int>(regions_.size()); ++r) {
        lruClear(regions_[r]);
        for (auto it = lru[r].rbegin(); it != lru[r].rend(); ++it)
            lruTouch(regions_[r], *it);
    }
    checkInvariants();
}

} // namespace flashcache
