#include "workload/synthetic.hh"

#include <cmath>

#include "util/log.hh"

namespace flashcache {

namespace {

/**
 * Shared skeleton: popularity-ranked page selection where rank 0 is
 * hottest, with separate read and write page ranges.
 */
class RankedWorkload : public WorkloadGenerator
{
  public:
    explicit RankedWorkload(const SyntheticConfig& cfg)
        : cfg_(cfg)
    {
        if (cfg.workingSetPages == 0)
            fatal("workload with empty working set");
        if (cfg.shape == TailShape::Zipf)
            zipf_ = std::make_unique<ZipfSampler>(cfg.workingSetPages,
                                                  cfg.alpha);
    }

    TraceRecord
    next(Rng& rng) override
    {
        TraceRecord r;
        r.isWrite = rng.bernoulli(cfg_.writeFraction);
        const std::uint64_t rank = sampleRank(rng);
        if (r.isWrite) {
            // The write stream reuses the hot read pages for the
            // overlapping fraction and otherwise lives in its own
            // range above the read footprint.
            if (rng.bernoulli(cfg_.writeOverlap)) {
                r.lba = rank;
            } else {
                r.lba = cfg_.workingSetPages +
                    rank % std::max<std::uint64_t>(
                        cfg_.workingSetPages / 4, 1);
            }
        } else {
            r.lba = rank;
        }
        return r;
    }

    std::string name() const override { return cfg_.name; }

    std::uint64_t
    workingSetPages() const override
    {
        return cfg_.workingSetPages +
            std::max<std::uint64_t>(cfg_.workingSetPages / 4, 1);
    }

  private:
    std::uint64_t
    sampleRank(Rng& rng)
    {
        switch (cfg_.shape) {
          case TailShape::Uniform:
            return rng.uniformInt(cfg_.workingSetPages);
          case TailShape::Zipf:
            return zipf_->sample(rng);
          case TailShape::Exponential: {
            // Popularity e^(-lambda * rank): rank = Exp(lambda).
            // Overflowing draws fold back over the whole range; a
            // clamp would pile the entire tail mass onto the single
            // coldest rank and break popularity monotonicity.
            const auto rank = static_cast<std::uint64_t>(
                rng.exponential(cfg_.lambda));
            return rank % cfg_.workingSetPages;
          }
        }
        panic("unreachable tail shape");
    }

    SyntheticConfig cfg_;
    std::unique_ptr<ZipfSampler> zipf_;
};

} // namespace

std::unique_ptr<WorkloadGenerator>
makeSynthetic(const SyntheticConfig& config)
{
    return std::make_unique<RankedWorkload>(config);
}

std::uint64_t
pageCount(double pages)
{
    // NaN fails the comparison too.
    if (!(pages >= 0.0 && pages < 0x1p64))
        fatal("workload scale gives an invalid page count: " +
              std::to_string(pages));
    return static_cast<std::uint64_t>(pages);
}

std::vector<SyntheticConfig>
table4MicroConfigs(double scale)
{
    const std::uint64_t pages = pageCount(262144 * scale);
    std::vector<SyntheticConfig> out;

    SyntheticConfig c;
    c.workingSetPages = std::max<std::uint64_t>(pages, 64);

    c.name = "uniform";
    c.shape = TailShape::Uniform;
    out.push_back(c);

    c.shape = TailShape::Zipf;
    c.name = "alpha1";
    c.alpha = 0.8;
    out.push_back(c);
    c.name = "alpha2";
    c.alpha = 1.2;
    out.push_back(c);
    c.name = "alpha3";
    c.alpha = 1.6;
    out.push_back(c);

    c.shape = TailShape::Exponential;
    c.alpha = 0.0;
    c.name = "exp1";
    c.lambda = 0.01;
    out.push_back(c);
    c.name = "exp2";
    c.lambda = 0.1;
    out.push_back(c);

    return out;
}

} // namespace flashcache
