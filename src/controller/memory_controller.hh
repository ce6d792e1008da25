/**
 * @file
 * The programmable flash memory controller (paper section 4).
 *
 * Sits between the software-managed disk cache and the raw NAND
 * device. Every access carries a descriptor — ECC strength and
 * density mode read out of the FPST by the driver — and the
 * controller runs the (modeled or real) BCH + CRC pipeline at that
 * strength.
 *
 * One read path and one program path serve two payload modes, which
 * share every device op, latency, counter and demand:
 *  - Metadata only (no payload pointer): bit errors come as counts
 *    from the device's reliability model; correction succeeds iff
 *    count <= strength. Fast enough for billion-access trace
 *    simulation.
 *  - With a payload: page bytes round-trip through the actual
 *    BchCode encoder/decoder with physically injected bit flips, and
 *    CRC32 verifies the result. Requires a store_data FlashDevice.
 */

#ifndef FLASHCACHE_CONTROLLER_MEMORY_CONTROLLER_HH
#define FLASHCACHE_CONTROLLER_MEMORY_CONTROLLER_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "ecc/bch.hh"
#include "ecc/ecc_timing.hh"
#include "flash/flash_device.hh"
#include "util/types.hh"

namespace flashcache {

namespace obs {
class MetricRegistry;
} // namespace obs

/** Per-access control message generated from the FPST (section 5.2). */
struct PageDescriptor
{
    /** BCH correctable bits; 0 disables ECC (CRC only). */
    std::uint8_t eccStrength = 1;

    /** Requested density mode; must match the frame's current mode
     *  for reads. */
    DensityMode mode = DensityMode::MLC;
};

/** Outcome classification of a controller read. */
enum class ReadStatus : std::uint8_t
{
    Clean,         ///< no bit errors present
    Corrected,     ///< errors present, all corrected by BCH
    Uncorrectable, ///< more errors than the code strength (CRC flags)
};

/** Full result of a controller page read. */
struct ControllerReadResult
{
    ReadStatus status = ReadStatus::Clean;
    /** Errors the ECC engine repaired. */
    unsigned correctedBits = 0;
    /** Raw hard errors present on the medium. */
    unsigned rawBitErrors = 0;
    /** Flash array + ECC decode + CRC latency. */
    Seconds latency = 0.0;
};

/** Result of a controller page program. */
struct ControllerWriteResult
{
    /** Encode + program latency. */
    Seconds latency = 0.0;
    /** Device reported program-status failure; page holds garbage. */
    bool failed = false;
};

/** Result of a controller block erase. */
struct ControllerEraseResult
{
    Seconds latency = 0.0;
    /** Erase verify failed; the block must be retired. */
    bool failed = false;
};

/** Controller-side counters. */
struct ControllerStats
{
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t erases = 0;
    std::uint64_t correctedReads = 0;
    std::uint64_t uncorrectableReads = 0;
    std::uint64_t bitsCorrected = 0;
    std::uint64_t programFailures = 0;
    std::uint64_t eraseFailures = 0;
    Seconds eccTime = 0.0;
};

/**
 * Self-describing out-of-band record stored in the tail of the spare
 * area by every cache program that carries a payload. Recovery
 * rebuilds the DRAM tables (FCHT/FPST/FBST, region membership) from
 * these records alone; the CRC (which also covers the data CRC and
 * BCH parity earlier in the spare) plus a 2-byte magic rejects torn
 * pages.
 */
struct OobRecord
{
    Lba lba = kInvalidLba;
    /** Global program sequence number; resolves duplicate LBAs. */
    std::uint64_t seq = 0;
    /** Owning region at program time (0 = read, 1 = write). */
    std::uint8_t region = 0;
    /** Page held data newer than the backing store. */
    bool dirty = false;
    /** ECC strength the page was encoded at. */
    std::uint8_t eccStrength = 1;
};

/** Spare-area bytes reserved for the OOB record (tail of the spare):
 *  lba(8) seq(8) flags(1) ecc(1) magic(2) crc(4). */
inline constexpr std::uint32_t kOobRecordBytes = 24;

/** Serialize an OOB record into the spare tail; `spare` must span
 *  the full spare area and spare_bytes >= kOobRecordBytes. */
void packOobRecord(std::uint8_t* spare, std::uint32_t spare_bytes,
                   const OobRecord& rec);

/** Parse and CRC-validate the spare tail. @return false for torn,
 *  erased-noise, or pre-OOB pages. */
bool parseOobRecord(const std::uint8_t* spare, std::uint32_t spare_bytes,
                    OobRecord& rec);

/** The controller's hardware BCH strength limit (paper: 12). */
inline constexpr unsigned kMaxEccStrength = 12;

/**
 * Programmable controller front-end over one FlashDevice.
 */
class FlashMemoryController
{
  public:
    /**
     * @param device The NAND array this controller drives.
     * @param timing ECC accelerator timing model.
     */
    FlashMemoryController(FlashDevice& device,
                          const EccTimingModel& timing = EccTimingModel());

    FlashDevice& device() { return *device_; }
    const FlashDevice& device() const { return *device_; }

    /**
     * Program one page at the descriptor strength. With `data`
     * (pageDataBytes) the payload is CRC'd and BCH-encoded into the
     * spare area and stored; `oob`, if also given, is packed into
     * the spare tail (kOobRecordBytes) for crash recovery. Without
     * `data` only the timing and counters are modeled.
     */
    ControllerWriteResult writePage(const PageAddress& addr,
                                    const PageDescriptor& desc,
                                    const std::uint8_t* data = nullptr,
                                    const OobRecord* oob = nullptr);

    /**
     * Read one page; latency is charged at the descriptor strength.
     * Without `out` the status follows the device's hard error count.
     * With `out` (pageDataBytes) the stored payload gets those errors
     * plus `extra_bit_errors` physically flipped, is BCH-decoded with
     * the code recorded in the page's OOB record (else the descriptor
     * strength) and CRC-checked, and lands in `out`.
     */
    ControllerReadResult readPage(const PageAddress& addr,
                                  const PageDescriptor& desc,
                                  std::uint8_t* out = nullptr,
                                  unsigned extra_bit_errors = 0);

    ControllerEraseResult eraseBlock(std::uint32_t block);

    const ControllerStats& stats() const { return stats_; }

    /** Register `controller.*` and `ecc.*` metrics. */
    void registerMetrics(obs::MetricRegistry& reg) const;

    /** Attach (or detach with nullptr) a scheduler demand sink: each
     *  encode/decode is recorded as an Ecc engine demand (the array
     *  op itself is recorded by the device). Not owned. */
    void attachDemandSink(sched::DemandSink* sink) { demands_ = sink; }

    /** The attached demand sink (or nullptr): the cache opens its
     *  background scopes on it. */
    sched::DemandSink* demandSink() const { return demands_; }

    /** Decode latency the pipeline charges at a strength. */
    Seconds
    decodeLatency(unsigned t) const
    {
        return t < decodeLat_.size() ? decodeLat_[t] : modelDecode(t);
    }

  private:
    /** Encode latency the pipeline charges at a strength. */
    Seconds
    encodeLatency(unsigned t) const
    {
        return t < encodeLat_.size() ? encodeLat_[t]
                                     : timing_.encodeLatency(t);
    }

    Seconds
    modelDecode(unsigned t) const
    {
        return timing_.decodeLatency(t).total() + timing_.crcLatency();
    }

    const BchCode& codeFor(unsigned t);

    FlashDevice* device_;
    EccTimingModel timing_;
    ControllerStats stats_;
    sched::DemandSink* demands_ = nullptr;
    /** codes_[t]: the page code of strength t, built on first use. */
    std::vector<std::unique_ptr<BchCode>> codes_;
    /** decodeLatency()/encodeLatency() for t = 0..kMaxEccStrength + 1. */
    std::vector<Seconds> decodeLat_;
    std::vector<Seconds> encodeLat_;
    Rng injectRng_;

    /// @name Payload workspaces, reused across calls so steady state
    /// allocates nothing; makes readPage/writePage non-reentrant.
    /// @{
    std::vector<std::uint8_t> spareBuf_;
    std::vector<std::uint8_t> wspare_;
    std::vector<std::uint32_t> pickBuf_;
    /// @}
};

} // namespace flashcache

#endif // FLASHCACHE_CONTROLLER_MEMORY_CONTROLLER_HH
