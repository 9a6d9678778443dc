/**
 * @file
 * The SQL filter primitive (Section 5.3, Figure 15).
 *
 * The DMS fetches a single column into double-buffered DMEM tiles;
 * the dpCore's BVLD + FILT instructions produce the selection bit
 * vector at about one tuple per cycle, for an end-to-end rate of
 * 482 Mtuples/s (1.65 cycles/tuple) on one core and ~9.6 GB/s on
 * 32. The Xeon baseline is an AVX2 compare loop bounded by
 * effective memory bandwidth.
 */

#ifndef DPU_APPS_SQL_FILTER_HH
#define DPU_APPS_SQL_FILTER_HH

#include <cstdint>

#include "apps/common.hh"

namespace dpu::apps::sql {

/** Parameters for one filter experiment. */
struct FilterConfig
{
    std::uint32_t rowsPerCore = 1 << 20;
    std::uint32_t tileBytes = 8192;   ///< DMEM tile per buffer
    unsigned nCores = 32;
    std::uint32_t lo = 100, hi = 799; ///< inclusive predicate
    std::uint64_t seed = 1;
};

/** Outcome of a filter run. */
struct FilterResult
{
    double seconds = 0;
    std::uint64_t rows = 0;
    std::uint64_t passed = 0;

    double mtuplesPerSec() const { return rows / seconds / 1e6; }
    double gbPerSec() const { return rows * 4.0 / seconds / 1e9; }
    /** Per-core cycles per tuple at 800 MHz (Figure 15's metric). */
    double
    cyclesPerTuple(unsigned n_cores) const
    {
        return 0.8e9 * n_cores / (rows / seconds);
    }
};

/** Run the filter on the DPU simulator. */
FilterResult dpuFilter(const soc::SocParams &params,
                       const FilterConfig &cfg);

/** Run the functional AVX2 baseline through the Xeon model. */
FilterResult xeonFilter(const FilterConfig &cfg);

} // namespace dpu::apps::sql

#endif // DPU_APPS_SQL_FILTER_HH
