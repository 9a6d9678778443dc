/**
 * @file
 * SQL grouping and aggregation (Section 5.3).
 *
 * Two regimes from Figure 14:
 *
 *  - Low NDV: the per-group table fits in every DMEM; each core
 *    streams its slice through the DMS and aggregates locally at
 *    line rate, then a cheap merge runs over the per-core tables.
 *    Both platforms are bandwidth bound, so the 6.7x gain is the
 *    bandwidth-per-watt ratio.
 *
 *  - High NDV: the table exceeds DMEM, so data is partitioned until
 *    each partition's table fits. The DPU needs ONE round: the DMS
 *    hardware-partitions 32 ways while each core software-partitions
 *    a further 32 ways in the same pass (the paper's 1024-way
 *    one-round partitioning); the Xeon needs TWO software rounds.
 *    Hence the larger 9.7x gain.
 *
 * SUM aggregation over (key u32, value u32) columns; keys are dense
 * in [0, ndv).
 */

#ifndef DPU_APPS_SQL_GROUPBY_HH
#define DPU_APPS_SQL_GROUPBY_HH

#include <cstdint>
#include <vector>

#include "apps/common.hh"

namespace dpu::apps::sql {

/** One group-by experiment. */
struct GroupByConfig
{
    std::uint32_t nRows = 1 << 20;
    std::uint32_t ndv = 64;       ///< distinct groups (dense keys)
    std::uint64_t seed = 11;
    unsigned nCores = 32;
};

/** Aggregated output and timing. */
struct GroupByResult
{
    double seconds = 0;
    std::uint64_t rows = 0;
    /** Per-key sums for cross-validation: groups[k] is key k's sum
     *  for k < ndv; the last slot, groups[ndv], counts the keys seen
     *  outside [0, ndv), so one stray key breaks equality. */
    std::vector<std::uint64_t> groups;

    double gbPerSec() const { return rows * 8.0 / seconds / 1e9; }
};

/** Low-NDV plan on the DPU (table fits DMEM; merge operator). */
GroupByResult dpuGroupByLowNdv(const soc::SocParams &params,
                               const GroupByConfig &cfg);

/** High-NDV plan on the DPU (one 1024-way partition round). */
GroupByResult dpuGroupByHighNdv(const soc::SocParams &params,
                                const GroupByConfig &cfg);

/** Xeon baseline, low NDV (single bandwidth-bound pass). */
GroupByResult xeonGroupByLowNdv(const GroupByConfig &cfg);

/** Xeon baseline, high NDV (two software partition rounds). */
GroupByResult xeonGroupByHighNdv(const GroupByConfig &cfg);

} // namespace dpu::apps::sql

#endif // DPU_APPS_SQL_GROUPBY_HH
