/**
 * @file
 * FlashCache::recover(): rebuild the DRAM tables from the medium
 * after a power cut.
 */

#include "core/flash_cache.hh"

#include <algorithm>
#include <cmath>

#include "util/log.hh"

namespace flashcache {

void
FlashCache::recover()
{
    if (!config_.realData || !payloadStore_)
        fatal("recover() requires realData mode (no payloads to scan "
              "otherwise)");
    const sched::BackgroundScope bg(ctrl_->demandSink());
    FlashDevice& dev = ctrl_->device();
    const FlashGeometry& geom = dev.geometry();

    // Forget everything DRAM held: the tables are rebuilt from the
    // medium alone. The FCHT is sized for every page up front, so
    // the scan never rehashes it.
    fcht_ = Fcht();
    fcht_.reserve(fpst_.size());
    for (Region& reg : regions_) {
        reg.freeBlocks.clear();
        lruClear(reg);
        for (auto& cur : reg.cursor) {
            cur.block = kNoBlock;
            cur.frame = 0;
            cur.sub = 0;
        }
    }
    // Pass 3 erases garbage blocks before deriveTables() recounts
    // the pages; the erase refuses a block that counts valid ones.
    for (FbstEntry& fb : fbst_)
        fb.validPages = fb.invalidPages = 0;
    pendingRetire_.clear();

    // Per-page scan verdicts: 0 = free, 1 = invalid (torn, duplicate,
    // stale or unreadable), 2 = live (after pass 1: the newest copy
    // of its LBA), next to each page's parsed OOB record.
    std::vector<std::uint8_t> pstate(fpst_.size(), 0);
    std::vector<OobRecord> recs(fpst_.size());

    // Pass 1: read every programmed page's spare area, reject torn
    // pages by the OOB CRC, and resolve duplicate tags by sequence
    // number (out-of-place writes leave superseded copies behind).
    // The FCHT is the LBA -> newest-copy index.
    for (std::uint32_t b = 0; b < numBlocks_; ++b) {
        if (fbst_[b].retired)
            continue;
        for (std::uint16_t f = 0; f < framesPerBlock_; ++f) {
            // An SLC-mode frame (density reconfig / hot migration)
            // has no second MLC page; addressing sub 1 is a fault.
            const std::uint8_t nsub =
                dev.frameMode(b, f) == DensityMode::SLC ? 1 : 2;
            for (std::uint8_t sub = 0; sub < nsub; ++sub) {
                const PageAddress addr{b, f, sub};
                if (!dev.isProgrammed(addr))
                    continue;
                ++stats_.recovery.scannedPages;
                const std::uint64_t id = pageId(addr);
                const PageBytes pb = dev.pageData(addr);
                OobRecord rec;
                if (!pb ||
                    pb.size < geom.pageDataBytes + geom.pageSpareBytes ||
                    !parseOobRecord(pb.data + geom.pageDataBytes,
                                    geom.pageSpareBytes, rec)) {
                    pstate[id] = 1;
                    ++stats_.recovery.tornPages;
                    continue;
                }
                recs[id] = rec;
                pstate[id] = 2;
                const std::uint64_t prev = fcht_.insertOrFind(rec.lba, id);
                if (prev == Fcht::npos)
                    continue;
                ++stats_.recovery.duplicatePages;
                if (rec.seq > recs[prev].seq) {
                    pstate[prev] = 1;
                    fcht_.update(rec.lba, id);
                } else {
                    pstate[id] = 1;
                }
            }
        }
    }

    // Pass 2, in physical page order: drop copies the backing store
    // has since superseded (generation tags beat flash sequence
    // numbers), then validate every survivor through the real ECC
    // pipeline — recovery never reinstates a page it cannot actually
    // read back. A dropped newest copy leaves its LBA on disk alone:
    // the older copies it beat in pass 1 stay invalid.
    for (std::uint64_t id = 0; id < fpst_.size(); ++id) {
        if (pstate[id] != 2)
            continue;
        const OobRecord& rec = recs[id];
        if (payloadStore_->generation(rec.lba) > rec.seq) {
            pstate[id] = 1;
            fcht_.erase(rec.lba);
            ++stats_.recovery.stalePages;
            continue;
        }
        const PageAddress addr = addressOf(id);
        const PageDescriptor desc{
            static_cast<std::uint8_t>(std::min<unsigned>(
                rec.eccStrength, config_.maxEccStrength)),
            dev.frameMode(addr.block, addr.frame)};
        const auto res = readWithRetry(addr, desc, pageBuf_.data());
        stats_.recovery.scanTime += res.latency;
        if (res.status == ReadStatus::Uncorrectable) {
            ++stats_.uncorrectableReads;
            ++stats_.recovery.uncorrectablePages;
            pstate[id] = 1;
            fcht_.erase(rec.lba);
        }
    }

    // Pass 3: one block walk sets the FPST's primary fields (live
    // entries from their OOB records) and each block's region. Live
    // blocks keep the region their newest page was written under;
    // empty blocks refill toward the configured split ratio, and
    // garbage blocks are erased. deriveTables() then derives the
    // modes and counts exactly as a warm restart does; the FCHT stays
    // as passes 1 and 2 left it.
    struct LiveBlock
    {
        std::uint64_t seq;
        std::uint32_t block;
    };
    std::vector<LiveBlock> live;
    std::vector<std::uint32_t> garbage, clean;
    std::uint32_t usable = 0, read_owned = 0;
    std::uint64_t maxSeq = 0;
    for (std::uint32_t b = 0; b < numBlocks_; ++b) {
        FbstEntry& fb = fbst_[b];
        if (fb.retired)
            continue;
        ++usable;
        std::uint16_t nvalid = 0, ninvalid = 0;
        std::uint32_t total_ecc = 0;
        std::uint64_t block_seq = 0, newest = 0;
        int r = kRead;
        for (std::uint16_t f = 0; f < framesPerBlock_; ++f) {
            for (std::uint8_t sub = 0; sub < 2; ++sub) {
                const std::uint64_t id = pageId({b, f, sub});
                const OobRecord& rec = recs[id];
                FpstEntry& e = fpst_[id];
                e = FpstEntry{};
                e.eccStrength = config_.initialEccStrength;
                block_seq = std::max(block_seq, rec.seq);
                if (pstate[id] == 1) {
                    e.state = PageState::Invalid;
                    ++ninvalid;
                } else if (pstate[id] == 2) {
                    e.state = PageState::Valid;
                    e.lba = rec.lba;
                    e.dirty = rec.dirty; // conservative: dirty stays dirty
                    e.accessCount = 1;
                    e.eccStrength = static_cast<std::uint8_t>(
                        std::min<unsigned>(rec.eccStrength,
                                           config_.maxEccStrength));
                    total_ecc += e.eccStrength > config_.initialEccStrength
                        ? e.eccStrength - config_.initialEccStrength : 0;
                    ++stats_.recovery.recoveredPages;
                    if (e.dirty)
                        ++stats_.recovery.recoveredDirty;
                    if (rec.seq >= newest) {
                        newest = rec.seq;
                        r = rec.region ? kWrite : kRead;
                    }
                    ++nvalid;
                }
            }
        }
        fb.totalEcc = total_ecc;
        maxSeq = std::max(maxSeq, block_seq);
        if (nvalid > 0) {
            if (!config_.splitRegions)
                r = kRead;
            fb.region = static_cast<std::int8_t>(r);
            read_owned += r == kRead;
            live.push_back({block_seq, b});
        } else if (ninvalid > 0) {
            garbage.push_back(b);
        } else {
            clean.push_back(b);
        }
    }
    const std::uint32_t read_target = config_.splitRegions
        ? std::clamp<std::uint32_t>(
              static_cast<std::uint32_t>(std::lround(
                  config_.readRegionFraction * usable)),
              2, usable >= 4 ? usable - 2 : 2)
        : usable;
    // A block refilled into the read region counts against its
    // target unless its erase fails and retires it.
    auto refill = [&](std::uint32_t b) {
        const int r = !config_.splitRegions || read_owned < read_target
            ? kRead : kWrite;
        fbst_[b].region = static_cast<std::int8_t>(r);
        read_owned += r == kRead;
        return r;
    };
    for (const std::uint32_t b : garbage) {
        const int r = refill(b);
        ++stats_.recovery.erasedBlocks;
        if (eraseBlockTracked(b, stats_.recovery.scanTime))
            regions_[r].freeBlocks.push_back(b);
        else
            read_owned -= r == kRead;
    }
    for (const std::uint32_t b : clean)
        regions_[refill(b)].freeBlocks.push_back(b);
    deriveTables(false);

    // Oldest-first LRU insertion: program sequence numbers double as
    // a recency proxy, so the hottest blocks end up most recent.
    std::sort(live.begin(), live.end(),
              [](const LiveBlock& a, const LiveBlock& b) {
                  return a.seq < b.seq;
              });
    for (const LiveBlock& lb : live)
        lruTouch(regions_[regionOf(lb.block)], lb.block);

    nextSeq_ = std::max(maxSeq, payloadStore_->maxGeneration()) + 1;
    checkInvariants();
}

} // namespace flashcache
