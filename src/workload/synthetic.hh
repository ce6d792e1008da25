/**
 * @file
 * Synthetic micro-benchmark generators (Table 4).
 *
 * The paper generates disk traces whose page popularity follows a
 * uniform, Zipf (alpha = 0.8 / 1.2 / 1.6) or exponential
 * (lambda = 0.01 / 0.1) distribution over a 512 MB footprint, to
 * show the macro benchmarks span the same tail-shape spectrum
 * (section 6.2, Figure 11).
 *
 * Generators are disk-level: the read stream and the write-back
 * stream are drawn over partially disjoint page sets, because reads
 * of recently written pages are absorbed by the DRAM primary disk
 * cache above the flash (section 5.1).
 */

#ifndef FLASHCACHE_WORKLOAD_SYNTHETIC_HH
#define FLASHCACHE_WORKLOAD_SYNTHETIC_HH

#include <memory>
#include <string>

#include "util/rng.hh"
#include "workload/trace.hh"

namespace flashcache {

/**
 * Interface all workload generators implement.
 */
class WorkloadGenerator
{
  public:
    virtual ~WorkloadGenerator() = default;

    /** Draw the next access. */
    virtual TraceRecord next(Rng& rng) = 0;

    /** Identifier matching Table 4 (e.g. "alpha2"). */
    virtual std::string name() const = 0;

    /** Pages the workload can touch. */
    virtual std::uint64_t workingSetPages() const = 0;

    /** Generate a trace of n records. */
    Trace
    generate(Rng& rng, std::uint64_t n)
    {
        Trace t;
        t.reserve(n);
        for (std::uint64_t i = 0; i < n; ++i)
            t.push_back(next(rng));
        return t;
    }
};

/** Popularity tail shapes of Table 4. */
enum class TailShape
{
    Uniform,     ///< extreme long tail (alpha = 0)
    Zipf,        ///< power law x^-alpha
    Exponential, ///< extreme short tail e^-lambda*x
};

/** Configuration of one synthetic generator. */
struct SyntheticConfig
{
    std::string name = "uniform";
    TailShape shape = TailShape::Uniform;
    double alpha = 0.0;  ///< Zipf exponent
    double lambda = 0.0; ///< exponential rate

    /** Footprint; Table 4 uses 512 MB = 262144 pages of 2 KB. */
    std::uint64_t workingSetPages = 262144;

    /** Fraction of accesses that are writes. */
    double writeFraction = 0.2;

    /** Fraction of the footprint writes overlap with reads; the rest
     *  of the write stream has its own pages (write-back locality). */
    double writeOverlap = 0.25;
};

/** Build a generator from a config. */
std::unique_ptr<WorkloadGenerator> makeSynthetic(
    const SyntheticConfig& config);

/**
 * A scaled footprint as a page count, rounded down. fatal()s unless
 * `pages` lies in [0, 2^64), so a negative, NaN or huge footprint
 * scale never reaches the integer conversion.
 */
std::uint64_t pageCount(double pages);

/**
 * The six micro-benchmarks of Table 4 (uniform, alpha1..3, exp1..2),
 * optionally scaled to a smaller footprint for fast simulation.
 *
 * @param scale Footprint multiplier (1.0 = the paper's 512 MB).
 */
std::vector<SyntheticConfig> table4MicroConfigs(double scale = 1.0);

} // namespace flashcache

#endif // FLASHCACHE_WORKLOAD_SYNTHETIC_HH
