#include "controller/memory_controller.hh"

#include <algorithm>
#include <cstring>

#include "ecc/crc32.hh"
#include "obs/metrics.hh"
#include "util/log.hh"

namespace flashcache {

namespace {

/** OOB magic bytes: make an all-zero (torn/unwritten) spare tail
 *  unparseable even in the vanishing case of a colliding CRC. */
constexpr std::uint8_t kOobMagic0 = 0xF1;
constexpr std::uint8_t kOobMagic1 = 0x0C;
/** Offset of the ECC strength byte in the OOB record. */
constexpr std::uint32_t kOobEccOffset = 17;

} // namespace

void
packOobRecord(std::uint8_t* spare, std::uint32_t spare_bytes,
              const OobRecord& rec)
{
    if (spare_bytes < kOobRecordBytes)
        panic("spare area too small for the OOB record");
    std::uint8_t* const tail = spare + spare_bytes - kOobRecordBytes;
    std::memcpy(tail, &rec.lba, 8);
    std::memcpy(tail + 8, &rec.seq, 8);
    tail[16] = static_cast<std::uint8_t>((rec.dirty ? 1 : 0) |
                                         ((rec.region & 1) << 1));
    tail[kOobEccOffset] = rec.eccStrength;
    tail[18] = kOobMagic0;
    tail[19] = kOobMagic1;
    // The OOB CRC covers everything before it: data CRC, BCH parity,
    // and the record body — one check rejects any torn prefix.
    const std::uint32_t crc = crc32(spare, spare_bytes - 4);
    std::memcpy(tail + 20, &crc, 4);
}

bool
parseOobRecord(const std::uint8_t* spare, std::uint32_t spare_bytes,
               OobRecord& rec)
{
    if (spare_bytes < kOobRecordBytes)
        return false;
    const std::uint8_t* const tail = spare + spare_bytes - kOobRecordBytes;
    if (tail[18] != kOobMagic0 || tail[19] != kOobMagic1)
        return false;
    std::uint32_t stored;
    std::memcpy(&stored, tail + 20, 4);
    if (crc32(spare, spare_bytes - 4) != stored)
        return false;
    std::memcpy(&rec.lba, tail, 8);
    std::memcpy(&rec.seq, tail + 8, 8);
    rec.dirty = (tail[16] & 1) != 0;
    rec.region = (tail[16] >> 1) & 1;
    rec.eccStrength = tail[kOobEccOffset];
    return true;
}

FlashMemoryController::FlashMemoryController(FlashDevice& device,
                                             const EccTimingModel& timing)
    : device_(&device), timing_(timing),
      injectRng_(0xC0FFEE)
{
    // One past the limit too: the cache prices a raise by one level.
    for (unsigned t = 0; t <= kMaxEccStrength + 1; ++t) {
        decodeLat_.push_back(modelDecode(t));
        encodeLat_.push_back(timing_.encodeLatency(t));
    }
}

void
FlashMemoryController::registerMetrics(obs::MetricRegistry& reg) const
{
    reg.counter("controller.reads", "controller page reads",
                &stats_.reads);
    reg.counter("controller.writes", "controller page programs",
                &stats_.writes);
    reg.counter("controller.erases", "controller block erases",
                &stats_.erases);
    reg.counter("ecc.corrected_reads", "reads with corrected errors",
                &stats_.correctedReads);
    reg.counter("ecc.uncorrectable_reads",
                "reads past the code strength",
                &stats_.uncorrectableReads);
    reg.counter("ecc.bits_corrected", "total bits corrected",
                &stats_.bitsCorrected);
    reg.counter("ecc.busy", "ECC engine busy seconds",
                &stats_.eccTime);
    reg.counter("controller.program_failures",
                "program-status failures reported by the device",
                &stats_.programFailures);
    reg.counter("controller.erase_failures",
                "erase failures reported by the device",
                &stats_.eraseFailures);
    const ControllerStats* st = &stats_;
    reg.gauge("ecc.corrected_read_rate",
              "fraction of reads needing correction", [st] {
                  return st->reads ? static_cast<double>(
                      st->correctedReads) /
                      static_cast<double>(st->reads) : 0.0;
              });
}

const BchCode&
FlashMemoryController::codeFor(unsigned t)
{
    if (t >= codes_.size())
        codes_.resize(t + 1);
    if (!codes_[t]) {
        codes_[t] = std::make_unique<BchCode>(
            15, t, device_->geometry().pageDataBytes * 8);
    }
    return *codes_[t];
}

ControllerReadResult
FlashMemoryController::readPage(const PageAddress& addr,
                                const PageDescriptor& desc,
                                std::uint8_t* out,
                                unsigned extra_bit_errors)
{
    ControllerReadResult res;
    const auto raw = device_->readPage(addr);
    const Seconds ecc_lat = decodeLatency(desc.eccStrength);
    res.latency = raw.latency + ecc_lat;
    stats_.eccTime += ecc_lat;
    if (demands_)
        demands_->record(sched::ResourceKind::Ecc, 0, ecc_lat);
    ++stats_.reads;

    res.rawBitErrors = raw.hardBitErrors;
    bool ok = raw.hardBitErrors <= desc.eccStrength;
    unsigned corrected = raw.hardBitErrors;
    if (out) {
        const auto& geom = device_->geometry();
        const PageBytes stored = device_->pageData(addr);
        if (!stored)
            panic("a payload read requires a store_data FlashDevice");
        std::memcpy(out, stored.data, geom.pageDataBytes);
        spareBuf_.assign(stored.data + geom.pageDataBytes,
                         stored.data + stored.size);

        // Decode with the code the page was written with: its OOB
        // record says which (the descriptor may have been raised
        // since). A strength past the hardware limit comes from a
        // damaged medium and counts as no record. A strength byte
        // equal to the descriptor's gives the same t whether or not
        // the record is valid, so its CRC is checked only otherwise.
        unsigned t = desc.eccStrength;
        const auto spare_bytes =
            static_cast<std::uint32_t>(spareBuf_.size());
        OobRecord rec;
        if (spare_bytes >= kOobRecordBytes &&
            spareBuf_[spare_bytes - kOobRecordBytes + kOobEccOffset] !=
                desc.eccStrength &&
            parseOobRecord(spareBuf_.data(), spare_bytes, rec) &&
            rec.eccStrength <= kMaxEccStrength) {
            t = rec.eccStrength;
        }

        // Physically inject the medium's hard errors (plus any extra
        // the caller wants) across the protected region: data +
        // parity. The OOB record in the spare tail is not part of it.
        const unsigned nerr = raw.hardBitErrors + extra_bit_errors;
        res.rawBitErrors = nerr;
        const std::uint32_t data_bits = geom.pageDataBytes * 8;
        const std::uint32_t protected_bits = data_bits +
            (t > 0 ? codeFor(t).parityBits() : 0);
        // Rejection sampling into a flat workspace: one RNG draw per
        // loop iteration, duplicates re-drawn.
        pickBuf_.clear();
        while (pickBuf_.size() < nerr && pickBuf_.size() < protected_bits) {
            const auto p = static_cast<std::uint32_t>(
                injectRng_.uniformInt(protected_bits));
            if (std::find(pickBuf_.begin(), pickBuf_.end(), p) ==
                pickBuf_.end()) {
                pickBuf_.push_back(p);
            }
        }
        for (const std::uint32_t p : pickBuf_) {
            if (p < data_bits) {
                out[p / 8] ^= static_cast<std::uint8_t>(1u << (p % 8));
            } else {
                const std::uint32_t q = p - data_bits;
                spareBuf_[4 + q / 8] ^=
                    static_cast<std::uint8_t>(1u << (q % 8));
            }
        }

        if (t > 0) {
            const auto dec = codeFor(t).decode(out, spareBuf_.data() + 4);
            ok = dec.ok;
            corrected = dec.correctedBits;
        } else {
            ok = pickBuf_.empty();
        }
        std::uint32_t stored_crc;
        std::memcpy(&stored_crc, spareBuf_.data(), 4);
        ok = ok && crc32(out, geom.pageDataBytes) == stored_crc;
    }

    if (!ok) {
        res.status = ReadStatus::Uncorrectable;
        ++stats_.uncorrectableReads;
    } else if (corrected == 0 && res.rawBitErrors == 0) {
        res.status = ReadStatus::Clean;
    } else {
        res.status = ReadStatus::Corrected;
        res.correctedBits = corrected;
        ++stats_.correctedReads;
        stats_.bitsCorrected += corrected;
    }
    return res;
}

ControllerWriteResult
FlashMemoryController::writePage(const PageAddress& addr,
                                 const PageDescriptor& desc,
                                 const std::uint8_t* data,
                                 const OobRecord* oob)
{
    if (data) {
        // Spare layout: [0..3] CRC32 of the data, [4..] BCH parity,
        // and (cache programs) the self-describing OOB record in the
        // tail.
        const auto& geom = device_->geometry();
        wspare_.assign(geom.pageSpareBytes, 0);
        const std::uint32_t crc = crc32(data, geom.pageDataBytes);
        std::memcpy(wspare_.data(), &crc, 4);
        if (desc.eccStrength > 0) {
            const BchCode& code = codeFor(desc.eccStrength);
            const std::uint32_t reserved = oob ? kOobRecordBytes : 0;
            if (4 + code.parityBytes() + reserved > geom.pageSpareBytes)
                panic("BCH parity does not fit the spare area");
            code.encode(data, wspare_.data() + 4);
        }
        if (oob)
            packOobRecord(wspare_.data(), geom.pageSpareBytes, *oob);
    }

    const Seconds enc = encodeLatency(desc.eccStrength);
    const auto prog = device_->programPage(addr, data,
                                           data ? wspare_.data() : nullptr);
    stats_.eccTime += enc;
    if (demands_)
        demands_->record(sched::ResourceKind::Ecc, 0, enc);
    ++stats_.writes;
    if (prog.failed)
        ++stats_.programFailures;
    return {prog.latency + enc, prog.failed};
}

ControllerEraseResult
FlashMemoryController::eraseBlock(std::uint32_t block)
{
    ++stats_.erases;
    const auto er = device_->eraseBlock(block);
    if (er.failed)
        ++stats_.eraseFailures;
    return {er.latency, er.failed};
}

} // namespace flashcache
