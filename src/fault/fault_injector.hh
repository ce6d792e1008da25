/**
 * @file
 * Unified fault-injection harness for the flash cache stack.
 *
 * A FaultInjector owns a deterministic, seeded fault plan and is
 * consulted (when attached) by FlashDevice — and through it the
 * memory controller — on every medium operation. Faults come in two
 * flavours:
 *
 *  - probabilistic rates: program-status failures, erase failures
 *    and transient read bit-flips, drawn from the injector's own Rng
 *    so a (seed, plan) pair replays bit-identically;
 *  - scheduled one-shots: "fail the Nth program", "fail the Nth
 *    erase", and power cuts that either land *between* operations
 *    (clean cut) or *mid-program* (torn page: only a prefix of
 *    data||spare reaches the medium).
 *
 * A power cut is delivered as a PowerLossException thrown out of the
 * device after the torn prefix has been persisted; the harness
 * discards the in-DRAM cache object (exactly what a real cut does to
 * the FCHT/FPST/FBST) and the device retains the crash-instant
 * medium state for FlashCache::recover() to scan.
 *
 * When no injector is attached every hook is a single null-pointer
 * test on the device hot path. The serve workloads of the end-to-end
 * benchmark (`python3 perfbench/run.py`) attach no injector, so their
 * host_ns_per_req tracks that path.
 */

#ifndef FLASHCACHE_FAULT_FAULT_INJECTOR_HH
#define FLASHCACHE_FAULT_FAULT_INJECTOR_HH

#include <cstddef>
#include <cstdint>

#include "obs/metrics.hh"
#include "util/rng.hh"
#include "util/types.hh"

namespace flashcache {

/**
 * Thrown by FlashDevice when the injector trips a power cut. The
 * device state at throw time is exactly the crash-instant medium
 * image (including any torn page); everything in DRAM is lost by
 * construction because the harness abandons the cache object.
 */
struct PowerLossException
{
    /** Global flash op ordinal (1-based) at which the cut landed. */
    std::uint64_t atOp = 0;
};

/** Outcome of consulting the injector for one page program. */
enum class ProgramFault : std::uint8_t
{
    None,       ///< program proceeds normally
    StatusFail, ///< chip reports program-status failure; page is garbage
    PowerCut,   ///< power dies mid-program; a torn prefix persists
};

/**
 * Declarative fault plan. Rates are per-operation probabilities;
 * scheduled fields are 1-based operation ordinals (0 = never).
 */
struct FaultPlan
{
    std::uint64_t seed = 0xFA17;

    /// @name Probabilistic rates.
    /// @{
    double programFailRate = 0.0; ///< P(program-status failure)
    double eraseFailRate = 0.0;   ///< P(erase failure)
    double readFaultRate = 0.0;   ///< P(transient read disturbance)
    unsigned readFaultBits = 4;   ///< max extra bit errors per event
    /// @}

    /// @name Scheduled one-shots (1-based ordinals; 0 = never).
    /// @{
    std::uint64_t programFailAt = 0;     ///< Nth program status-fails
    std::uint64_t eraseFailAt = 0;       ///< Nth erase fails
    std::uint64_t powerCutAtProgram = 0; ///< cut mid-Nth-program (torn)
    std::uint64_t powerCutAtOp = 0;      ///< clean cut before Nth flash op
    /// @}

    /**
     * Fraction of the in-flight payload persisted by a torn program.
     * Negative = draw uniformly in [0, 1) per cut. The persisted
     * prefix is always strictly shorter than the payload, so a torn
     * page can never masquerade as complete.
     */
    double tornFraction = -1.0;
};

/** Injection event counts, registered under `fault.*`. */
struct FaultStats
{
    std::uint64_t programFails = 0; ///< program-status failures injected
    std::uint64_t eraseFails = 0;   ///< erase failures injected
    std::uint64_t readFaults = 0;   ///< transient read events injected
    std::uint64_t readFaultBits = 0; ///< total extra bits injected
    std::uint64_t powerCuts = 0;    ///< power cuts delivered
    std::uint64_t tornPages = 0;    ///< pages left torn by cuts/failures
};

/**
 * The decision engine. Attach with FlashDevice::attachFaultInjector;
 * detach (or clearPowerLoss) before
 * driving recovery so the rebuilt stack sees a quiet medium.
 */
class FaultInjector
{
  public:
    explicit FaultInjector(const FaultPlan& plan);

    /**
     * Called at the top of every flash operation (read, program,
     * erase). Throws PowerLossException for a scheduled clean cut;
     * panics if the device is driven after a cut (a harness bug —
     * nothing runs between power loss and reboot).
     */
    void opStart();

    /** Decide the fate of the current page program. */
    ProgramFault onProgram();

    /** @return true when the current block erase must fail. */
    bool onErase();

    /** @return extra transient bit errors for the current page read. */
    unsigned onRead();

    /**
     * Bytes of the in-flight payload persisted before a cut or status
     * failure; always < total so the page's CRCs cannot hold.
     */
    std::size_t tornBytes(std::size_t total);

    /** Record that a torn page reached the medium. */
    void noteTornPage() { ++stats_.tornPages; }

    /** @return true after a power cut until clearPowerLoss(). */
    bool powerLost() const { return powerLost_; }

    /** "Reboot": accept operations again. Medium state is untouched. */
    void clearPowerLoss() { powerLost_ = false; }

    const FaultStats& stats() const { return stats_; }
    const FaultPlan& plan() const { return plan_; }

    /** Register the `fault.*` counters. */
    void registerMetrics(obs::MetricRegistry& reg) const;

  private:
    [[noreturn]] void deliverPowerCut();

    FaultPlan plan_;
    Rng rng_;
    FaultStats stats_;
    std::uint64_t ops_ = 0;      ///< all flash ops
    std::uint64_t programs_ = 0; ///< page programs
    std::uint64_t erases_ = 0;   ///< block erases
    bool powerLost_ = false;
};

} // namespace flashcache

#endif // FLASHCACHE_FAULT_FAULT_INJECTOR_HH
