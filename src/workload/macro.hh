/**
 * @file
 * Macro-benchmark workload models (Table 4).
 *
 * The paper drives its evaluation with dbt2 (OLTP) and SPECWeb99
 * traffic generated under M5, plus the UMass storage-trace
 * repository's WebSearch1/2 and Financial1/2 traces. Neither the
 * binaries nor the traces are redistributable here, so each workload
 * is replaced by a generator that matches its published
 * characteristics: footprint (working set size), read/write mix,
 * popularity tail shape, and sequentiality. DESIGN.md documents the
 * substitution; the per-workload constants cite what they mimic.
 */

#ifndef FLASHCACHE_WORKLOAD_MACRO_HH
#define FLASHCACHE_WORKLOAD_MACRO_HH

#include <memory>
#include <string>
#include <vector>

#include "workload/synthetic.hh"

namespace flashcache {

/** Characteristic parameters of one macro workload model. */
struct MacroConfig
{
    std::string name;
    std::string description;

    /** Read footprint in 2 KB pages. */
    std::uint64_t readPages = 0;

    /** Zipf popularity exponent of the access stream. */
    double alpha = 1.0;

    /** Zipf exponent of the write-back stream; 0 reuses alpha.
     *  OLTP writes are typically more concentrated than reads. */
    double writeAlpha = 0.0;

    /** Fraction of accesses that are write-backs. */
    double writeFraction = 0.2;

    /** Fraction of writes that target read-hot pages. */
    double writeOverlap = 0.3;

    /** Mean sequential run length in pages (1 = fully random). */
    double seqRunMean = 1.0;

    /** Size of the dedicated write-back range as a fraction of the
     *  read footprint (database logs / updated tables are a small,
     *  hot slice of the dataset). */
    double writeRangeFraction = 0.25;

    std::uint64_t
    writeRangePages() const
    {
        const auto pages = static_cast<std::uint64_t>(
            writeRangeFraction * static_cast<double>(readPages));
        return pages == 0 ? 1 : pages;
    }
};

/**
 * Zipf-popularity generator with sequential runs and a separate
 * write-back stream, parameterized by a MacroConfig.
 */
class MacroWorkload : public WorkloadGenerator
{
  public:
    explicit MacroWorkload(const MacroConfig& cfg);

    TraceRecord next(Rng& rng) override;
    std::string name() const override { return cfg_.name; }
    std::uint64_t workingSetPages() const override;

    const MacroConfig& config() const { return cfg_; }

  private:
    MacroConfig cfg_;
    ZipfSampler zipf_;
    ZipfSampler writeZipf_;
    Lba runNext_ = 0;
    std::uint64_t runRemaining_ = 0;
};

/**
 * The six macro benchmarks of Table 4, footprints scaled by `scale`
 * (1.0 reproduces the paper's working set sizes, e.g. Financial2 =
 * 443.8 MB and WebSearch1 = 5116.7 MB as printed on Figure 7).
 */
std::vector<MacroConfig> table4MacroConfigs(double scale = 1.0);

/** Look up one macro config by Table 4 name; fatal if unknown. */
MacroConfig macroConfig(const std::string& name, double scale = 1.0);

/** Construct the generator for a macro config. */
std::unique_ptr<WorkloadGenerator> makeMacro(const MacroConfig& cfg);

/**
 * Any Table 4 workload, micro or macro, by name; names match ignoring
 * ASCII case ("financial1" is Financial1). nullptr if none matches.
 */
std::unique_ptr<WorkloadGenerator> makeWorkloadByName(
    const std::string& name, double scale = 1.0);

} // namespace flashcache

#endif // FLASHCACHE_WORKLOAD_MACRO_HH
