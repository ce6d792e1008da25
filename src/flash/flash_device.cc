#include "flash/flash_device.hh"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>

#include "fault/fault_injector.hh"
#include "obs/metrics.hh"
#include "reliability/page_health.hh"
#include "util/log.hh"
#include "util/serialize.hh"

namespace flashcache {

namespace {

/** Snapshot frame record: mode(1) pendingMode(1) damage(4). */
constexpr std::size_t kFrameRecordBytes = 6;

} // namespace

FlashDevice::FlashDevice(const FlashGeometry& geometry,
                         const FlashTiming& timing,
                         const CellLifetimeModel& lifetime,
                         std::uint64_t seed, double spatial_frac,
                         bool store_data)
    : geom_(geometry), timing_(timing), lifetime_(&lifetime), seed_(seed),
      spatialFrac_(spatial_frac), storeData_(store_data),
      softRng_(seed ^ 0xBADC0FFEE0DDF00Dull)
{
    const std::size_t nframes =
        static_cast<std::size_t>(geom_.numBlocks) * geom_.framesPerBlock;
    frames_.resize(nframes);
    modes_.assign(nframes, DensityMode::MLC);
    blockErases_.assign(geom_.numBlocks, 0);
    programmed_.assign(nframes * 2, 0);
    torn_.assign(nframes * 2, false);

    if (storeData_) {
        slotBytes_ = static_cast<std::size_t>(geom_.pageDataBytes) +
            geom_.pageSpareBytes;
        arena_.resize(nframes * 2 * slotBytes_);
        dataLen_.assign(nframes * 2, 0);
    }

    // Factory bad-block marking, deterministic per seed.
    factoryBad_.assign(geom_.numBlocks, false);
    if (geom_.factoryBadBlockRate > 0.0) {
        Rng bad_rng(seed ^ 0xFEEDFACECAFEBEEFull);
        for (std::uint32_t b = 0; b < geom_.numBlocks; ++b)
            factoryBad_[b] = bad_rng.bernoulli(geom_.factoryBadBlockRate);
    }
}

bool
FlashDevice::isFactoryBad(std::uint32_t block) const
{
    return factoryBad_.at(block);
}

void
FlashDevice::registerMetrics(obs::MetricRegistry& reg) const
{
    reg.counter("flash.reads", "raw page reads", &stats_.reads);
    reg.counter("flash.programs", "raw page programs",
                &stats_.programs);
    reg.counter("flash.erases", "raw block erases", &stats_.erases);
    reg.counter("flash.busy", "flash array busy seconds",
                &stats_.busyTime);
    reg.counter("flash.active_energy", "active energy (J)",
                &stats_.activeEnergy);
}

FlashDevice::FrameState&
FlashDevice::frameAt(std::uint32_t block, std::uint16_t frame)
{
    return frames_[static_cast<std::size_t>(block) * geom_.framesPerBlock +
                   frame];
}

const FlashDevice::FrameState&
FlashDevice::frameAt(std::uint32_t block, std::uint16_t frame) const
{
    return frames_[static_cast<std::size_t>(block) * geom_.framesPerBlock +
                   frame];
}

void
FlashDevice::validate(const PageAddress& addr) const
{
    if (addr.block >= geom_.numBlocks || addr.frame >= geom_.framesPerBlock
        || addr.sub > 1) {
        panic("flash page address out of range");
    }
    if (factoryBad_[addr.block])
        panic("access to a factory bad block");
    if (addr.sub == 1 &&
        frameMode(addr.block, addr.frame) == DensityMode::SLC)
        panic("second MLC page addressed on an SLC-mode frame");
}

void
FlashDevice::account(Seconds latency, std::uint32_t block)
{
    stats_.busyTime += latency;
    stats_.activeEnergy += latency * timing_.activePower;
    if (demands_) {
        demands_->record(sched::ResourceKind::FlashChannel,
                         static_cast<std::uint16_t>(
                             geom_.channelOf(block)),
                         latency);
    }
}

void
FlashDevice::ensureHealth(FrameState& fs, std::uint32_t block,
                          std::uint16_t frame) const
{
    if (!fs.weakest.empty())
        return;
    // Per-frame deterministic stream: independent of access order.
    const std::uint64_t mix = seed_ ^
        (0x9E3779B97F4A7C15ull * (static_cast<std::uint64_t>(block) *
                                  geom_.framesPerBlock + frame + 1));
    Rng rng(mix);
    const double offset = spatialFrac_ == 0.0
        ? 0.0
        : rng.normal(0.0, lifetime_->params().spatialShiftDecadesPerFrac *
                     spatialFrac_ / 3.0);
    const auto weakest = sampleWeakestLifetimes(
        *lifetime_, rng, geom_.pageBits(), kTrackedCells, offset);
    fs.weakest.assign(weakest.begin(), weakest.end());
}

unsigned
FlashDevice::hardErrorsOf(const FrameState& fs, std::uint32_t block,
                          std::uint16_t frame, DensityMode mode) const
{
    if (fs.damage == 0.0f)
        return 0;
    auto& mut = const_cast<FrameState&>(fs);
    ensureHealth(mut, block, frame);
    // MLC sensing margins are tighter: the same physical damage
    // manifests as if the cell had seen mlcWearMultiplier times the
    // cycles (Table 1's 10x endurance gap).
    const double eff = mode == DensityMode::MLC
        ? fs.damage * lifetime_->params().mlcWearMultiplier
        : static_cast<double>(fs.damage);
    const auto it = std::upper_bound(fs.weakest.begin(), fs.weakest.end(),
                                     static_cast<float>(eff));
    return static_cast<unsigned>(it - fs.weakest.begin());
}

double
FlashDevice::effectiveCycles(std::uint32_t block, std::uint16_t frame,
                             DensityMode mode) const
{
    const auto& fs = frameAt(block, frame);
    return mode == DensityMode::MLC
        ? fs.damage * lifetime_->params().mlcWearMultiplier
        : static_cast<double>(fs.damage);
}

FlashDevice::ReadResult
FlashDevice::readPage(const PageAddress& addr)
{
    validate(addr);
    const std::size_t lp = linearPage(addr);
    if (!programmed_[lp])
        panic("read of unprogrammed flash page");
    const auto& fs = frameAt(addr.block, addr.frame);
    const DensityMode mode = frameMode(addr.block, addr.frame);
    ReadResult res;
    res.latency = mode == DensityMode::SLC ? timing_.slcReadLatency
                                           : timing_.mlcReadLatency;
    res.hardBitErrors = hardErrorsOf(fs, addr.block, addr.frame, mode);
    if (torn_[lp]) {
        // An interrupted program leaves cells at indeterminate levels;
        // report errors far beyond any ECC strength.
        res.hardBitErrors += kTornPageBitErrors;
    }
    if (fault_) {
        fault_->opStart();
        res.hardBitErrors += fault_->onRead();
    }
    if (softErrorRate_ > 0.0) {
        // Transient read-disturb/retention flips; MLC's narrower
        // sensing margins double the exposure.
        const double rate = mode == DensityMode::MLC
            ? 2.0 * softErrorRate_ : softErrorRate_;
        res.hardBitErrors += static_cast<unsigned>(
            softRng_.poisson(rate * geom_.pageBits()));
    }
    ++stats_.reads;
    account(res.latency, addr.block);
    return res;
}

void
FlashDevice::setSoftErrorRate(double rate_per_bit_read)
{
    softErrorRate_ = rate_per_bit_read;
}

void
FlashDevice::writeTornPayload(std::size_t lp, const std::uint8_t* data,
                              const std::uint8_t* spare, std::size_t nbytes)
{
    if (!storeData_ || !data)
        return;
    // Zero the whole slot first: the arena may still hold bytes from
    // a previous life of this page (erase only clears dataLen_), and
    // a stale-but-valid OOB record must never shine through a torn
    // page during recovery.
    std::uint8_t* const dst = &arena_[lp * slotBytes_];
    std::memset(dst, 0, slotBytes_);
    const std::size_t dlen = std::min<std::size_t>(nbytes,
                                                   geom_.pageDataBytes);
    std::memcpy(dst, data, dlen);
    if (spare && nbytes > geom_.pageDataBytes) {
        std::memcpy(dst + geom_.pageDataBytes, spare,
                    nbytes - geom_.pageDataBytes);
    }
    dataLen_[lp] = geom_.pageDataBytes +
        (spare ? geom_.pageSpareBytes : 0u);
}

FlashDevice::ProgramResult
FlashDevice::programPage(const PageAddress& addr, const std::uint8_t* data,
                         const std::uint8_t* spare)
{
    validate(addr);
    const std::size_t lp = linearPage(addr);
    if (programmed_[lp])
        panic("program of already-programmed page without erase");

    const Seconds lat = frameMode(addr.block, addr.frame) == DensityMode::SLC
        ? timing_.slcWriteLatency : timing_.mlcWriteLatency;

    ProgramFault pf = ProgramFault::None;
    if (fault_) {
        fault_->opStart();
        pf = fault_->onProgram();
    }

    const std::size_t full = static_cast<std::size_t>(geom_.pageDataBytes) +
        (spare ? geom_.pageSpareBytes : 0u);

    if (pf == ProgramFault::PowerCut) {
        // Power died mid-pulse: the page is occupied but holds only a
        // prefix of the payload. Persist the torn state, then deliver
        // the cut; the in-DRAM cache above is abandoned by the
        // harness, exactly as a real cut would lose it.
        programmed_[lp] = 1;
        torn_[lp] = true;
        writeTornPayload(lp, data, spare, fault_->tornBytes(full));
        fault_->noteTornPage();
        ++stats_.programs;
        account(lat, addr.block);
        throw PowerLossException{};
    }

    programmed_[lp] = 1;
    if (pf == ProgramFault::StatusFail) {
        // The chip's status read reports failure; cell contents are
        // unreliable garbage. The layer above must re-program
        // elsewhere and retire the block.
        torn_[lp] = true;
        writeTornPayload(lp, data, spare, fault_->tornBytes(full));
        fault_->noteTornPage();
        ++stats_.programs;
        account(lat, addr.block);
        return {lat, true};
    }

    if (storeData_ && data) {
        std::uint8_t* const dst = &arena_[lp * slotBytes_];
        std::memcpy(dst, data, geom_.pageDataBytes);
        std::uint32_t len = geom_.pageDataBytes;
        if (spare) {
            std::memcpy(dst + geom_.pageDataBytes, spare,
                        geom_.pageSpareBytes);
            len += geom_.pageSpareBytes;
        }
        dataLen_[lp] = len;
    }
    ++stats_.programs;
    account(lat, addr.block);
    return {lat, false};
}

FlashDevice::EraseResult
FlashDevice::eraseBlock(std::uint32_t block)
{
    if (block >= geom_.numBlocks)
        panic("erase of out-of-range block");
    if (factoryBad_[block])
        panic("erase of a factory bad block");

    if (fault_) {
        fault_->opStart();
        if (fault_->onErase()) {
            // Erase verify failed. The block still took the wear of
            // the attempted pulse, but old contents and programmed
            // flags persist; the layer above must retire the block.
            for (std::uint16_t f = 0; f < geom_.framesPerBlock; ++f)
                frameAt(block, f).damage += 1.0f;
            const Seconds flat = timing_.mlcEraseLatency;
            ++stats_.erases;
            account(flat, block);
            return {flat, true};
        }
    }

    bool any_mlc = false;
    for (std::uint16_t f = 0; f < geom_.framesPerBlock; ++f) {
        const std::size_t fi =
            static_cast<std::size_t>(block) * geom_.framesPerBlock + f;
        FrameState& fs = frames_[fi];
        fs.damage += 1.0f;
        modes_[fi] = fs.pendingMode;
        if (modes_[fi] == DensityMode::MLC)
            any_mlc = true;
        const std::size_t base = fi * 2;
        if (storeData_) {
            dataLen_[base] = 0;
            dataLen_[base + 1] = 0;
        }
        programmed_[base] = 0;
        programmed_[base + 1] = 0;
        torn_[base] = false;
        torn_[base + 1] = false;
    }
    ++blockErases_[block];
    const Seconds lat = any_mlc ? timing_.mlcEraseLatency
                                : timing_.slcEraseLatency;
    ++stats_.erases;
    account(lat, block);
    return {lat, false};
}

void
FlashDevice::requestFrameMode(std::uint32_t block, std::uint16_t frame,
                              DensityMode mode)
{
    frameAt(block, frame).pendingMode = mode;
}

unsigned
FlashDevice::hardErrors(const PageAddress& addr) const
{
    validate(addr);
    return hardErrorsOf(frameAt(addr.block, addr.frame), addr.block,
                        addr.frame, frameMode(addr.block, addr.frame));
}

double
FlashDevice::frameDamage(std::uint32_t block, std::uint16_t frame) const
{
    return frameAt(block, frame).damage;
}

std::uint32_t
FlashDevice::blockEraseCount(std::uint32_t block) const
{
    return blockErases_.at(block);
}

bool
FlashDevice::isProgrammed(const PageAddress& addr) const
{
    validate(addr);
    return programmed_[linearPage(addr)] != 0;
}

bool
FlashDevice::isTorn(const PageAddress& addr) const
{
    validate(addr);
    return torn_[linearPage(addr)];
}

PageBytes
FlashDevice::pageData(const PageAddress& addr) const
{
    if (!storeData_)
        return {};
    const std::size_t lp = linearPage(addr);
    if (dataLen_[lp] == 0)
        return {};
    return {&arena_[lp * slotBytes_], dataLen_[lp]};
}

void
FlashDevice::saveState(std::ostream& os) const
{
    putMagic(os, "FCDEV002");
    putScalar<std::uint32_t>(os, geom_.numBlocks);
    putScalar<std::uint16_t>(os, geom_.framesPerBlock);
    putScalar<std::uint8_t>(os, storeData_ ? 1 : 0);

    putRecords(os, kFrameRecordBytes, frames_.size(),
               [this](RecordCursor& r, std::uint64_t i) {
                   const FrameState& fs = frames_[i];
                   r.put<std::uint8_t>(
                       static_cast<std::uint8_t>(modes_[i]));
                   r.put<std::uint8_t>(
                       static_cast<std::uint8_t>(fs.pendingMode));
                   r.put<float>(fs.damage);
               });
    putVector(os, blockErases_);

    // Programmed bitmap, packed eight pages to a byte, LSB first.
    const std::size_t nbits = programmed_.size();
    putScalar<std::uint64_t>(os, nbits);
    putRecords(os, 1, (nbits + 7) / 8,
               [&](RecordCursor& r, std::uint64_t byte_at) {
                   const std::size_t i = byte_at * 8;
                   std::uint8_t byte = 0;
                   for (std::size_t b = 0; b < 8 && i + b < nbits; ++b)
                       byte |= static_cast<std::uint8_t>(
                           programmed_[i + b] << b);
                   r.put(byte);
               });

    // Retained payloads (store_data mode); same (lp, bytes) wire
    // format as the old per-page map, written in page order.
    std::uint64_t stored = 0;
    for (const std::uint32_t len : dataLen_) {
        if (len != 0)
            ++stored;
    }
    putScalar<std::uint64_t>(os, stored);
    std::vector<std::uint8_t> bytes;
    for (std::size_t lp = 0; lp < dataLen_.size(); ++lp) {
        if (dataLen_[lp] == 0)
            continue;
        putScalar<std::uint64_t>(os, lp);
        const std::uint8_t* const src = &arena_[lp * slotBytes_];
        bytes.assign(src, src + dataLen_[lp]);
        putVector(os, bytes);
    }
}

void
FlashDevice::loadState(std::istream& is)
{
    expectMagic(is, "FCDEV002");
    if (getScalar<std::uint32_t>(is) != geom_.numBlocks ||
        getScalar<std::uint16_t>(is) != geom_.framesPerBlock) {
        fatal("flash state file geometry mismatch");
    }
    if ((getScalar<std::uint8_t>(is) != 0) != storeData_)
        fatal("flash state file store_data mode mismatch");

    const auto getMode = [](RecordCursor& r) {
        const auto mode = r.get<std::uint8_t>();
        if (mode > static_cast<std::uint8_t>(DensityMode::MLC))
            fatal("flash state file density mode out of range");
        return static_cast<DensityMode>(mode);
    };
    getRecords(is, kFrameRecordBytes, frames_.size(),
               [&](RecordCursor& r, std::uint64_t i) {
                   FrameState& fs = frames_[i];
                   modes_[i] = getMode(r);
                   fs.pendingMode = getMode(r);
                   fs.damage = r.get<float>();
                   if (!std::isfinite(fs.damage) || fs.damage < 0.0f)
                       fatal("flash state file damage out of range");
                   // fs.weakest is not in the file: it depends only on
                   // this device's seed, block and frame, so a frame
                   // keeps what ensureHealth already sampled, or
                   // samples on first use.
               });
    blockErases_ = getVector<std::uint32_t>(is);
    if (blockErases_.size() != geom_.numBlocks)
        fatal("flash state file erase-count size mismatch");

    const std::size_t nbits = programmed_.size();
    if (getScalar<std::uint64_t>(is) != nbits)
        fatal("flash state file page-count mismatch");
    getRecords(is, 1, (nbits + 7) / 8,
               [&](RecordCursor& r, std::uint64_t byte_at) {
                   const std::size_t i = byte_at * 8;
                   const auto byte = r.get<std::uint8_t>();
                   for (std::size_t b = 0; b < 8 && i + b < nbits; ++b)
                       programmed_[i + b] = (byte >> b) & 1;
               });
    // Snapshots are cooperative (no mid-program cut can be captured),
    // so any torn marks belong to the pre-load life of this device.
    std::fill(torn_.begin(), torn_.end(), false);

    std::fill(dataLen_.begin(), dataLen_.end(), 0);
    const auto npages = getScalar<std::uint64_t>(is);
    for (std::uint64_t i = 0; i < npages; ++i) {
        // Same wire format as putVector: a u64 length, then the bytes,
        // read straight into the page's arena slot once both the page
        // and the length are known to fit it.
        const auto lp = getScalar<std::uint64_t>(is);
        const auto len = getScalar<std::uint64_t>(is);
        if (lp >= dataLen_.size() || len > slotBytes_)
            fatal("flash state file payload out of range");
        getBytes(is, &arena_[lp * slotBytes_], len);
        dataLen_[lp] = static_cast<std::uint32_t>(len);
    }
}

} // namespace flashcache
