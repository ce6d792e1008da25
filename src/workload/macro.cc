#include "workload/macro.hh"

#include <algorithm>
#include <cmath>

#include "util/log.hh"

namespace flashcache {

MacroWorkload::MacroWorkload(const MacroConfig& cfg)
    : cfg_(cfg),
      zipf_(std::max<std::uint64_t>(cfg.readPages, 1), cfg.alpha),
      writeZipf_(std::max<std::uint64_t>(cfg.readPages, 1),
                 cfg.writeAlpha > 0.0 ? cfg.writeAlpha : cfg.alpha)
{
}

std::uint64_t
MacroWorkload::workingSetPages() const
{
    return cfg_.readPages + cfg_.writeRangePages();
}

TraceRecord
MacroWorkload::next(Rng& rng)
{
    TraceRecord r;

    // Continue a sequential read run if one is open.
    if (runRemaining_ > 0) {
        --runRemaining_;
        r.lba = runNext_++ % cfg_.readPages;
        return r;
    }

    r.isWrite = rng.bernoulli(cfg_.writeFraction);

    if (r.isWrite) {
        const std::uint64_t wrank = writeZipf_.sample(rng);
        if (rng.bernoulli(cfg_.writeOverlap)) {
            r.lba = wrank;
        } else {
            r.lba = cfg_.readPages + wrank % cfg_.writeRangePages();
        }
        return r;
    }

    const std::uint64_t rank = zipf_.sample(rng);

    r.lba = rank;
    if (cfg_.seqRunMean > 1.0) {
        // Geometric run length with the configured mean.
        const double p = 1.0 / cfg_.seqRunMean;
        std::uint64_t len = 1;
        while (!rng.bernoulli(p) && len < 64)
            ++len;
        if (len > 1) {
            runRemaining_ = len - 1;
            runNext_ = r.lba + 1;
        }
    }
    return r;
}

std::vector<MacroConfig>
table4MacroConfigs(double scale)
{
    auto pages = [&](double mbytes) {
        return std::max<std::uint64_t>(
            pageCount(mbytes * scale * 1024.0 * 1024.0 / 2048.0), 64);
    };

    std::vector<MacroConfig> out;

    // dbt2 / OLTP on a 2 GB database: update-heavy transactions with
    // moderate skew; writes concentrate in a small hot slice (logs
    // and frequently updated tables).
    // Reads follow TPC-C's strong skew (most of the database is
    // cold history); writes concentrate further.
    out.push_back({"dbt2", "OLTP 2GB database (TPC-C style)",
                   pages(2048), 1.3, 1.5, 0.35, 0.15, 1.0, 0.0625});

    // SPECWeb99 on a 1.8 GB fileset: read-mostly web serving, strong
    // Zipf file popularity, short sequential file reads.
    out.push_back({"SPECWeb99", "1.8GB SPECWeb99 disk image",
                   pages(1843), 1.1, 0.0, 0.05, 0.50, 4.0, 0.10});

    // UMass WebSearch: nearly read-only index lookups over a very
    // large footprint (Figure 7 prints 5116.7 MB for trace 1).
    out.push_back({"WebSearch1", "search engine disk access pattern 1",
                   pages(5116.7), 0.7, 0.0, 0.01, 0.50, 2.0, 0.25});
    out.push_back({"WebSearch2", "search engine disk access pattern 2",
                   pages(4500), 0.75, 0.0, 0.01, 0.50, 2.0, 0.25});

    // UMass Financial: OLTP at a financial institution. Trace 1 is
    // write-dominated, trace 2 read-dominated with a small footprint
    // (Figure 7 prints 443.8 MB).
    out.push_back({"Financial1", "financial application pattern 1",
                   pages(700), 1.2, 0.0, 0.77, 0.60, 1.0, 0.25});
    // Alpha calibrated so the optimal SLC fraction at half the
    // working set is ~70%, matching the paper's Figure 7(a) reading
    // of the real trace's very strong locality.
    out.push_back({"Financial2", "financial application pattern 2",
                   pages(443.8), 1.5, 0.0, 0.18, 0.40, 1.0, 0.25});

    return out;
}

MacroConfig
macroConfig(const std::string& name, double scale)
{
    for (const MacroConfig& c : table4MacroConfigs(scale)) {
        if (c.name == name)
            return c;
    }
    fatal("unknown macro workload: " + name);
}

std::unique_ptr<WorkloadGenerator>
makeMacro(const MacroConfig& cfg)
{
    return std::make_unique<MacroWorkload>(cfg);
}

std::unique_ptr<WorkloadGenerator>
makeWorkloadByName(const std::string& name, double scale)
{
    const auto lower = [](char c) {
        return c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c;
    };
    const auto matches = [&](const std::string& n) {
        return std::ranges::equal(n, name, {}, lower, lower);
    };
    for (const SyntheticConfig& c : table4MicroConfigs(scale)) {
        if (matches(c.name))
            return makeSynthetic(c);
    }
    for (const MacroConfig& c : table4MacroConfigs(scale)) {
        if (matches(c.name))
            return makeMacro(c);
    }
    return nullptr;
}

} // namespace flashcache
