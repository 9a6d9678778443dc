/**
 * @file
 * Zipf-distributed sampling for workload generators (term frequencies
 * in the similarity-search index, hot keys in the rack's arrival
 * traces). Uses the classic inverse-CDF-over-partial-harmonic table
 * for exact sampling, with a guide table that narrows each draw's
 * binary search to the ranks one 1/4096 slice of [0, 1) can reach.
 */

#ifndef DPU_UTIL_ZIPF_HH
#define DPU_UTIL_ZIPF_HH

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "sim/logging.hh"
#include "sim/rng.hh"

namespace dpu::util {

/** Samples ranks in [0, n) with P(k) proportional to 1/(k+1)^s;
 *  rank 0 is the hottest. */
class Zipf
{
  public:
    Zipf(std::size_t n, double s) : cdf(n), guide(guideSize + 1)
    {
        sim_assert(n >= 1, "zipf sampler needs a non-empty key space");
        sim_assert(s >= 0, "zipf exponent must be non-negative");
        double sum = 0.0;
        for (std::size_t k = 0; k < n; ++k) {
            sum += 1.0 / std::pow(double(k + 1), s);
            cdf[k] = sum;
        }
        for (auto &c : cdf)
            c /= sum;
        // guide[j] = lower_bound(cdf, j / guideSize). The power-of-two
        // size makes j / guideSize and u * guideSize exact, so a draw
        // u in slice j has its lower_bound in [guide[j], guide[j+1]].
        std::size_t k = 0;
        for (std::size_t j = 0; j <= guideSize; ++j) {
            const double at = double(j) / guideSize;
            while (k < n && cdf[k] < at)
                ++k;
            guide[j] = k;
        }
    }

    /** Draw one rank (one rng.uniform()): the first rank whose CDF
     *  reaches the draw. */
    std::size_t
    sample(sim::Rng &rng) const
    {
        const double u = rng.uniform();
        const std::size_t j = std::size_t(u * guideSize);
        const auto it = std::lower_bound(cdf.begin() + guide[j],
                                         cdf.begin() + guide[j + 1], u);
        return it == cdf.end() ? cdf.size() - 1
                               : std::size_t(it - cdf.begin());
    }

    /** Probability mass of the @p k hottest ranks. */
    double
    headMass(std::size_t k) const
    {
        return k == 0 ? 0 : cdf[std::min(k, cdf.size()) - 1];
    }

    std::size_t size() const { return cdf.size(); }

  private:
    static constexpr std::size_t guideSize = 4096;

    std::vector<double> cdf;
    std::vector<std::size_t> guide;
};

} // namespace dpu::util

#endif // DPU_UTIL_ZIPF_HH
