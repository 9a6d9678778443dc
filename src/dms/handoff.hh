/**
 * @file
 * Partition-range hand-off staging plans.
 *
 * When a balancer re-homes a key partition (board/balance.hh),
 * the owning DPU has to stage that partition's DMS-resident state
 * out of DDR so it can be shipped over the rack network. A hand-off
 * is planned as a chain of DdrToDmem descriptors: each chunk pulls
 * up to 64 KB-class slices into DMEM double buffers, from where the
 * host NIC path picks them up. The chunking respects the Table 2
 * encoding limit — Rows is a 16-bit field, so one descriptor moves
 * at most 65535 elements — and the plan is a pure function of
 * (base, bytes, chunk, width), so both ends of a migration compute
 * identical chunk boundaries without exchanging metadata.
 */

#ifndef DPU_DMS_HANDOFF_HH
#define DPU_DMS_HANDOFF_HH

#include <cstdint>
#include <vector>

#include "dms/descriptor.hh"
#include "mem/addr.hh"

namespace dpu::dms {

/** One contiguous DDR slice of a hand-off. */
struct HandoffChunk
{
    mem::Addr ddrAddr = 0;
    std::uint32_t rows = 0;    ///< elements in this slice (<= 65535)
    std::uint8_t colWidth = 8; ///< element width in bytes

    std::uint64_t bytes() const
    {
        return std::uint64_t(rows) * colWidth;
    }
};

/** A staged partition hand-off: ordered, non-overlapping chunks
 *  covering [base, base + totalBytes). */
struct HandoffPlan
{
    mem::Addr base = 0;
    std::vector<HandoffChunk> chunks;

    std::uint64_t totalBytes() const;

    /**
     * Emit the DdrToDmem descriptor chain that stages the plan
     * through a double buffer at @p dmem_base. Consecutive chunks
     * alternate completion events @p event_a / @p event_b so the
     * consumer can drain one buffer while the next fills (the
     * Listing 1 ping-pong idiom).
     */
    std::vector<Descriptor> descriptors(std::uint16_t dmem_base,
                                        std::uint16_t buf_bytes,
                                        std::int8_t event_a = 0,
                                        std::int8_t event_b = 1) const;
};

/**
 * Chunk a partition's byte range into a hand-off plan. @p bytes
 * must be a multiple of @p col_width; @p chunk_bytes caps each
 * slice and is clamped to the 65535-row descriptor limit.
 */
HandoffPlan planRangeHandoff(mem::Addr base, std::uint64_t bytes,
                             std::uint64_t chunk_bytes = 256 * 1024,
                             std::uint8_t col_width = 8);

} // namespace dpu::dms

#endif // DPU_DMS_HANDOFF_HH
