/**
 * @file
 * DMEM: the 32 KB software-managed scratchpad SRAM attached to each
 * dpCore (Section 2.1). The DMS store engines deposit partitioned /
 * streamed data directly into DMEM, and the core accesses it with
 * single-cycle latency ("This also guarantees single-cycle latency to
 * access any part of the hash table, unlike a cache", Section 5.3).
 *
 * DMEM is dual-ported between the core and the DMS in the model (the
 * chip banks it; contention is second-order and absorbed into the
 * DMS's per-buffer overhead calibration).
 *
 * The bytes are a slice of the chip's one demand-zero SRAM block
 * (sim::ZeroPages::carve, soc::Soc), like a chip's DDR image: a fresh
 * DMEM reads as zero, and host RAM follows the pages a run writes.
 * A DMEM owns no mapping, and its neighbours in the block are other
 * SRAMs, not guard pages: read(), write() and zero() check their
 * range, and so must every user of raw() before it touches a byte.
 */

#ifndef DPU_MEM_DMEM_HH
#define DPU_MEM_DMEM_HH

#include <cstdint>
#include <cstring>
#include <span>

#include "mem/addr.hh"
#include "sim/logging.hh"

namespace dpu::mem {

/** One dpCore's scratchpad. */
class Dmem
{
  public:
    static constexpr std::uint32_t size = dmemBytes;

    /** A scratchpad on the first size bytes of @p sram, which must
     *  read as zero (a fresh slice of a demand-zero region). */
    explicit Dmem(std::span<std::uint8_t> sram)
        : bytes(sram.data(), size)
    {
        sim_assert(sram.size() >= size,
                   "DMEM given a %zu-byte slice", sram.size());
    }

    Dmem(const Dmem &) = delete;
    Dmem &operator=(const Dmem &) = delete;

    void
    read(std::uint32_t offset, void *dst, std::size_t len) const
    {
        sim_assert(offset + len <= size,
                   "DMEM read out of range: off=%u len=%zu", offset,
                   len);
        std::memcpy(dst, bytes.data() + offset, len);
    }

    void
    write(std::uint32_t offset, const void *src, std::size_t len)
    {
        sim_assert(offset + len <= size,
                   "DMEM write out of range: off=%u len=%zu", offset,
                   len);
        std::memcpy(bytes.data() + offset, src, len);
    }

    /** Zero [offset, offset + len): a kernel clearing a table. */
    void
    zero(std::uint32_t offset, std::size_t len)
    {
        sim_assert(offset + len <= size,
                   "DMEM write out of range: off=%u len=%zu", offset,
                   len);
        std::memset(bytes.data() + offset, 0, len);
    }

    template <typename T>
    T
    load(std::uint32_t offset) const
    {
        T v;
        read(offset, &v, sizeof(T));
        return v;
    }

    template <typename T>
    void
    store(std::uint32_t offset, T v)
    {
        write(offset, &v, sizeof(T));
    }

    std::uint8_t *raw() { return bytes.data(); }
    const std::uint8_t *raw() const { return bytes.data(); }

  private:
    std::span<std::uint8_t, size> bytes;
};

} // namespace dpu::mem

#endif // DPU_MEM_DMEM_HH
