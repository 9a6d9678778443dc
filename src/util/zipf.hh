/**
 * @file
 * Zipf-distributed sampling for workload generators (term frequencies
 * in the similarity-search index, hot keys in the rack's arrival
 * traces). Uses the classic inverse-CDF-over-partial-harmonic table
 * for exact sampling with O(log n) draws.
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
    Zipf(std::size_t n, double s) : cdf(n)
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
    }

    /** Draw one rank (one rng.uniform()). */
    std::size_t
    sample(sim::Rng &rng) const
    {
        const auto it =
            std::lower_bound(cdf.begin(), cdf.end(), rng.uniform());
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
    std::vector<double> cdf;
};

} // namespace dpu::util

#endif // DPU_UTIL_ZIPF_HH
