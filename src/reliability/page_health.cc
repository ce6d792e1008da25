#include "reliability/page_health.hh"

#include <algorithm>
#include <cmath>
#include <limits>

namespace flashcache {

std::vector<double>
sampleWeakestLifetimes(const CellLifetimeModel& model, Rng& rng,
                       unsigned n_cells, unsigned k,
                       double page_offset_decades)
{
    if (k == 0 || n_cells == 0)
        return {};
    k = std::min(k, n_cells);

    // Sequential generation of ascending uniform order statistics:
    // given U(j-1), the next is U(j-1) + (1 - U(j-1)) * B where
    // B = 1 - V^(1/(n-j+1)) is the minimum of the remaining n-j+1
    // uniforms rescaled to (U(j-1), 1).
    std::vector<double> out;
    out.reserve(k);
    double u = 0.0;
    for (unsigned j = 0; j < k; ++j) {
        const double remaining = static_cast<double>(n_cells - j);
        const double v = rng.uniform();
        // log1p for numerical stability at tiny probabilities.
        const double b = -std::expm1(std::log1p(-v) / remaining);
        u = u + (1.0 - u) * b;
        const double life = model.cyclesAtFailProb(
            std::max(u, std::numeric_limits<double>::min()),
            page_offset_decades);
        out.push_back(life);
    }
    // Monotonicity holds analytically; enforce against rounding.
    for (std::size_t i = 1; i < out.size(); ++i)
        out[i] = std::max(out[i], out[i - 1]);
    return out;
}

} // namespace flashcache
