/**
 * @file
 * util::Zipf's guide-table draws against a full binary search over
 * the same CDF: the guide only narrows the search, so every rank
 * must be the one std::lower_bound picks.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "sim/rng.hh"
#include "util/zipf.hh"

using namespace dpu;

TEST(Zipf, GuidedDrawsEqualAFullBinarySearch)
{
    const std::pair<std::size_t, double> shapes[] = {
        {1, 1.0},   {2, 0.5},     {7, 0.0},
        {64, 0.99}, {16384, 1.0}, {100000, 1.2},
    };
    for (const auto &[n, s] : shapes) {
        const util::Zipf z(n, s);
        // headMass(k + 1) is the sampler's own CDF entry k.
        std::vector<double> cdf(n);
        for (std::size_t k = 0; k < n; ++k)
            cdf[k] = z.headMass(k + 1);
        sim::Rng drawn(n), searched(n);
        for (int i = 0; i < 2'000'000; ++i) {
            const auto it = std::lower_bound(cdf.begin(), cdf.end(),
                                             searched.uniform());
            const std::size_t want =
                it == cdf.end() ? n - 1 : std::size_t(it - cdf.begin());
            ASSERT_EQ(z.sample(drawn), want)
                << "n=" << n << " s=" << s << " draw " << i;
        }
    }
}
