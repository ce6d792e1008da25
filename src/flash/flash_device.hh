/**
 * @file
 * Behavioural NAND flash device model.
 *
 * Provides raw page read/program and block erase with Table 2/3
 * latencies, per-frame SLC/MLC density modes (applied at the next
 * erase, per section 5.2), wear accumulation, and hard bit-error
 * counts drawn from the reliability model. The programmable memory
 * controller sits on top and adds ECC; the disk-cache core sits on
 * top of that and enforces out-of-place write discipline — this
 * layer panics if a page is programmed twice without an erase, which
 * is how real NAND fails and how cache bugs get caught.
 */

#ifndef FLASHCACHE_FLASH_FLASH_DEVICE_HH
#define FLASHCACHE_FLASH_FLASH_DEVICE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "flash/flash_spec.hh"
#include "flash/geometry.hh"
#include "reliability/wear_model.hh"
#include "sched/demand.hh"
#include "util/rng.hh"
#include "util/types.hh"

namespace flashcache {

class FaultInjector;

namespace obs {
class MetricRegistry;
} // namespace obs

/** View of a stored page payload (data + spare, contiguous). */
struct PageBytes
{
    const std::uint8_t* data = nullptr;
    std::size_t size = 0;

    explicit operator bool() const { return data != nullptr; }
};

/** Aggregate operation counters and energy/busy-time accounting. */
struct FlashOpStats
{
    std::uint64_t reads = 0;
    std::uint64_t programs = 0;
    std::uint64_t erases = 0;
    Seconds busyTime = 0.0;
    Joules activeEnergy = 0.0;
};

/**
 * One NAND die (or bank set treated as a unit).
 */
class FlashDevice
{
  public:
    /** Result of a raw page read. */
    struct ReadResult
    {
        Seconds latency = 0.0;
        /** Permanent bad bits the ECC layer must deal with. */
        unsigned hardBitErrors = 0;
    };

    /** Result of a page program (status read after the pulse). */
    struct ProgramResult
    {
        Seconds latency = 0.0;
        /** Chip reported program-status failure; page is garbage. */
        bool failed = false;
    };

    /** Result of a block erase. */
    struct EraseResult
    {
        Seconds latency = 0.0;
        /** Erase verify failed; old contents may persist. */
        bool failed = false;
    };

    /**
     * @param geometry     Array shape.
     * @param timing       Latency/power datasheet values.
     * @param lifetime     Shared cell wear-out statistics.
     * @param seed         Seed for per-frame lifetime draws.
     * @param spatial_frac Page-to-page quality spread (0 = uniform).
     * @param store_data   Keep actual page payloads (integration
     *                     tests / real-ECC data path); off for large
     *                     trace simulations.
     */
    FlashDevice(const FlashGeometry& geometry, const FlashTiming& timing,
                const CellLifetimeModel& lifetime, std::uint64_t seed,
                double spatial_frac = 0.0, bool store_data = false);

    /**
     * Enable transient (soft) read errors: each read flips an
     * additional Poisson(page bits * rate) bits that do not persist
     * (section 4.1: ECC mitigates "hard (permanent) and soft
     * (transient) errors"). MLC sensing doubles the rate.
     */
    void setSoftErrorRate(double rate_per_bit_read);

    /** True when constructed with store_data (payload retention). */
    bool storesData() const { return storeData_; }

    /// @name State persistence (warm restarts, section 3).
    /// Saves/restores wear, density modes, programmed flags and
    /// retained payloads. The geometry must match on load.
    /// @{
    void saveState(std::ostream& os) const;
    void loadState(std::istream& is);
    /// @}

    const FlashGeometry& geometry() const { return geom_; }
    const FlashTiming& timing() const { return timing_; }

    /** Read a programmed page; returns latency and hard bit errors. */
    ReadResult readPage(const PageAddress& addr);

    /**
     * Program an erased page. Optional payload is retained only when
     * store_data was requested.
     *
     * With a fault injector attached this may report a program-status
     * failure (the page is marked programmed but holds garbage) or
     * throw PowerLossException mid-program, leaving a torn page: only
     * a prefix of data||spare reaches the medium.
     */
    ProgramResult programPage(const PageAddress& addr,
                              const std::uint8_t* data = nullptr,
                              const std::uint8_t* spare = nullptr);

    /**
     * Erase a whole block; applies pending density-mode changes. An
     * injected erase failure leaves the old contents (and programmed
     * flags) in place — the block must be retired by the layer above.
     */
    EraseResult eraseBlock(std::uint32_t block);

    /**
     * Attach (or detach with nullptr) a fault injector. Not owned;
     * must outlive the device or be detached first.
     */
    void attachFaultInjector(FaultInjector* fault) { fault_ = fault; }

    /**
     * Attach (or detach with nullptr) a scheduler demand sink: every
     * read/program/erase is additionally recorded as a FlashChannel
     * demand on the block's geometry-mapped channel. Not owned.
     */
    void attachDemandSink(sched::DemandSink* sink) { demands_ = sink; }

    /** Page left torn by a mid-program power cut or status failure. */
    bool isTorn(const PageAddress& addr) const;

    /** Current operating mode of a frame. */
    DensityMode
    frameMode(std::uint32_t block, std::uint16_t frame) const
    {
        return modes_[static_cast<std::size_t>(block) *
                          geom_.framesPerBlock +
                      frame];
    }

    /**
     * Request a density-mode change; takes effect at the next erase
     * of the containing block (section 5.2: "updated page settings
     * are applied on the next erase and write access").
     */
    void requestFrameMode(std::uint32_t block, std::uint16_t frame,
                          DensityMode mode);

    /** Hard bit errors a read of this page would see right now. */
    unsigned hardErrors(const PageAddress& addr) const;

    /** Effective W/E cycles a read at the given mode margins sees. */
    double effectiveCycles(std::uint32_t block, std::uint16_t frame,
                           DensityMode mode) const;

    /** Accumulated erase cycles of a frame. */
    double frameDamage(std::uint32_t block, std::uint16_t frame) const;

    std::uint32_t blockEraseCount(std::uint32_t block) const;

    /** Factory-marked bad block (never usable). */
    bool isFactoryBad(std::uint32_t block) const;

    bool isProgrammed(const PageAddress& addr) const;

    /** Every page's programmed flag (nonzero = programmed) in linear
     *  page order: block, then frame, then sub, one byte each. No
     *  address checks; for bulk scans. */
    const std::vector<std::uint8_t>&
    programmedFlags() const
    {
        return programmed_;
    }

    /** Stored payload of a programmed page (store_data mode only);
     *  empty (null data) when nothing is stored. */
    PageBytes pageData(const PageAddress& addr) const;

    const FlashOpStats& stats() const { return stats_; }

    /** Register `flash.*` array-level metrics. */
    void registerMetrics(obs::MetricRegistry& reg) const;

    /** Total energy over a wall-clock interval: active + idle. */
    Joules
    energyOver(Seconds wall_clock) const
    {
        const Seconds idle = wall_clock > stats_.busyTime
            ? wall_clock - stats_.busyTime : 0.0;
        return stats_.activeEnergy + idle * timing_.idlePower;
    }

  private:
    struct FrameState
    {
        DensityMode pendingMode = DensityMode::MLC;
        float damage = 0.0f; ///< accumulated erase cycles
        std::vector<float> weakest; ///< lazily sampled cell lifetimes
    };

    FrameState& frameAt(std::uint32_t block, std::uint16_t frame);
    const FrameState& frameAt(std::uint32_t block,
                              std::uint16_t frame) const;

    /** Sample a frame's weak-cell lifetimes on first use. */
    void ensureHealth(FrameState& fs, std::uint32_t block,
                      std::uint16_t frame) const;

    unsigned hardErrorsOf(const FrameState& fs, std::uint32_t block,
                          std::uint16_t frame, DensityMode mode) const;

    std::size_t
    linearPage(const PageAddress& addr) const
    {
        return (static_cast<std::size_t>(addr.block) *
                    geom_.framesPerBlock +
                addr.frame) * 2 + addr.sub;
    }

    void validate(const PageAddress& addr) const;
    void account(Seconds latency, std::uint32_t block);

    /** Zero the page's arena slot and persist a torn payload prefix. */
    void writeTornPayload(std::size_t lp, const std::uint8_t* data,
                          const std::uint8_t* spare, std::size_t nbytes);

    FlashGeometry geom_;
    FlashTiming timing_;
    const CellLifetimeModel* lifetime_;
    std::uint64_t seed_;
    double spatialFrac_;
    bool storeData_;

    std::vector<FrameState> frames_;
    /** Each frame's current mode, one byte per frame apart from
     *  FrameState, so mode-only scans stream a dense array. */
    std::vector<DensityMode> modes_;
    std::vector<std::uint32_t> blockErases_;
    /** One flag byte per page, so loading a snapshot stores whole
     *  bytes instead of read-modify-writing packed bits. */
    std::vector<std::uint8_t> programmed_;
    std::vector<bool> torn_; ///< incompletely programmed pages
    std::vector<bool> factoryBad_;

    FaultInjector* fault_ = nullptr;
    sched::DemandSink* demands_ = nullptr;

    /// @name Retained payloads (store_data mode): one flat arena
    /// sized at construction — a fixed slot of data+spare bytes per
    /// page — instead of a per-page heap vector. dataLen_ of 0 marks
    /// an absent payload.
    /// @{
    std::vector<std::uint8_t> arena_;
    std::vector<std::uint32_t> dataLen_;
    std::size_t slotBytes_ = 0;
    /// @}

    FlashOpStats stats_;
    double softErrorRate_ = 0.0;
    Rng softRng_;

    /** Weak cells tracked per frame (max ECC strength + margin). */
    static constexpr unsigned kTrackedCells = 16;

    /** Bit errors reported for a torn page: far beyond any ECC
     *  strength, yet small enough for physical injection loops. */
    static constexpr unsigned kTornPageBitErrors = 64;
};

} // namespace flashcache

#endif // FLASHCACHE_FLASH_FLASH_DEVICE_HH
