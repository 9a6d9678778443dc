/**
 * @file
 * Cross-DPU board workloads.
 *
 * Two of the paper's applications, re-staged at board scale:
 *
 *  - Sharded SQL partition/aggregate (runShardedSql): every DPU
 *    radix-partitions its local table slice 32 ways with the DMS
 *    hash engine (Figure 10/13); partition p is owned by DPU
 *    p % nDpus, so non-owned partitions are staged to DDR and
 *    shipped to their owner over the link fabric (bulk DMA + a
 *    doorbell carrying the row count). Owners then aggregate
 *    COUNT/SUM per partition — the partitioned-hash-join building
 *    block — with one core per (partition, source DPU) region so
 *    the reduce stays parallel at any board size.
 *
 *  - Distributed HyperLogLog (runDistributedHll): every DPU builds
 *    per-lane sketches with the CRC32+NTZ kernel (Section 5.4),
 *    max-merges them on-chip, ships the chip sketch to DPU 0 over
 *    the fabric, and DPU 0 merges the board sketch. Register max
 *    is order-independent, so the final sketch must be bit-exact
 *    against a host replay while the estimate stays inside the
 *    usual HLL error band.
 *
 * Both runners drive the Board's shared event kernel in phases,
 * validate against straight-C++ host references, and report wall
 * (simulated) time plus link statistics. Everything is seeded; the
 * same (config, board) pair reproduces bit-identical results and
 * stats.
 */

#ifndef DPU_BOARD_BOARD_APPS_HH
#define DPU_BOARD_BOARD_APPS_HH

#include <cstdint>

#include "board/board.hh"

namespace dpu::board {

/** Global partition fan-out (the DMS radix width, Figure 13). */
constexpr unsigned sqlPartitions = 32;

struct ShardedSqlConfig
{
    /** Table rows staged on (and partitioned by) each DPU. */
    std::uint32_t rowsPerDpu = 1 << 15;
    std::uint64_t seed = 0x5eed;
};

struct ShardedSqlResult
{
    bool valid = false;
    /** Rows processed across the board (rowsPerDpu * nDpus). */
    std::uint64_t rows = 0;
    double seconds = 0;
    std::uint64_t bytesShipped = 0;
    /** Doorbells lost to link faults (recovered host-side). */
    std::uint64_t doorbellsLost = 0;
    double peakLinkUtilization = 0;

    double
    rowsPerSec() const
    {
        return seconds > 0 ? double(rows) / seconds : 0;
    }
};

/** Hash-partitioned COUNT/SUM aggregate across the board. */
ShardedSqlResult runShardedSql(Board &b, const ShardedSqlConfig &cfg);

struct DistHllConfig
{
    std::uint64_t elementsPerDpu = 1 << 14;
    /** Distinct-value pool the per-DPU streams draw from. */
    std::uint64_t cardinality = 1 << 12;
    unsigned pBits = 10; ///< 1024 registers
    unsigned nLanes = 8; ///< cores per DPU building sketches
    std::uint64_t seed = 7;
};

struct DistHllResult
{
    bool valid = false;
    /** Board sketch bit-identical to the host-replayed merge. */
    bool sketchExact = false;
    double estimate = 0;
    std::uint64_t trueDistinct = 0;
    double errorFrac = 0;
    double seconds = 0;
};

/** Distributed HLL with cross-DPU sketch merge on DPU 0. */
DistHllResult runDistributedHll(Board &b, const DistHllConfig &cfg);

} // namespace dpu::board

#endif // DPU_BOARD_BOARD_APPS_HH
