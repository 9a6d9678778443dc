/**
 * @file
 * Physical address type and the DPU's flat address map.
 *
 * The dpCore has no MMU; every core addresses the same physical
 * space (Section 2.2). The map mirrors the chip:
 *
 *   [0, dmemBase)                  DDR DRAM: every chip maps this
 *                                  whole 4 GiB window, demand-zero
 *   [dmemBase + i*dmemStride, +32K) DMEM scratchpad of dpCore i
 *
 * Every address from dmemBase up is a DMEM aperture (isDmemAddr), so
 * a chip's DDR may not reach past it (soc::Soc asserts this).
 *
 * DMEM apertures are addressable by every agent (the local core, the
 * DMS store engines, and remote cores via ATE RPCs).
 */

#ifndef DPU_MEM_ADDR_HH
#define DPU_MEM_ADDR_HH

#include <cstdint>

namespace dpu::mem {

/** 64-bit physical address (the dpCore is fully 64-bit addressable). */
using Addr = std::uint64_t;

/** Size of each dpCore's DMEM scratchpad (Section 2.1: 32 KB). */
constexpr std::uint32_t dmemBytes = 32 * 1024;

/** Base of the DMEM aperture region. */
constexpr Addr dmemBase = 0x1'0000'0000ull;

/** Stride between consecutive cores' DMEM apertures. */
constexpr Addr dmemStride = 0x1'0000ull;

/** Aperture base for core @p core_id. */
constexpr Addr
dmemAddr(unsigned core_id, std::uint32_t offset = 0)
{
    return dmemBase + Addr(core_id) * dmemStride + offset;
}

/** True if @p a falls inside some core's DMEM aperture. */
constexpr bool
isDmemAddr(Addr a)
{
    return a >= dmemBase;
}

/** Core id owning DMEM address @p a (only valid if isDmemAddr). */
constexpr unsigned
dmemOwner(Addr a)
{
    return unsigned((a - dmemBase) / dmemStride);
}

/** Offset within the owning core's DMEM. */
constexpr std::uint32_t
dmemOffset(Addr a)
{
    return std::uint32_t((a - dmemBase) % dmemStride);
}

} // namespace dpu::mem

#endif // DPU_MEM_ADDR_HH
