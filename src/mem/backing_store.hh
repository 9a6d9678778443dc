/**
 * @file
 * Functional byte store for DDR DRAM contents.
 *
 * Timing is modelled separately by DdrChannel; this class only holds
 * the bytes. Agents that bypass the cache hierarchy (the DMS, which
 * sits at the memory controller) read and write here directly, which
 * is exactly why software-managed coherence (flush before DMS read,
 * invalidate before cached read of DMS output) is required on the
 * real chip and in this simulator alike.
 *
 * The bytes are demand-zero pages (sim::ZeroPages): the image reads
 * as zero, and host RAM follows the pages a run writes, not the
 * chip's DDR size.
 */

#ifndef DPU_MEM_BACKING_STORE_HH
#define DPU_MEM_BACKING_STORE_HH

#include <cstdint>
#include <cstring>

#include "mem/addr.hh"
#include "sim/logging.hh"
#include "sim/zero_pages.hh"

namespace dpu::mem {

/** Plain byte-addressable storage for the DDR channel. */
class BackingStore
{
  public:
    explicit BackingStore(std::size_t bytes) : mem(bytes) {}

    std::size_t size() const { return mem.size(); }

    void
    read(Addr addr, void *dst, std::size_t len) const
    {
        sim_assert(addr <= mem.size() && len <= mem.size() - addr,
                   "DDR read out of range: addr=%llx len=%zu",
                   (unsigned long long)addr, len);
        std::memcpy(dst, mem.data() + addr, len);
    }

    void
    write(Addr addr, const void *src, std::size_t len)
    {
        sim_assert(addr <= mem.size() && len <= mem.size() - addr,
                   "DDR write out of range: addr=%llx len=%zu",
                   (unsigned long long)addr, len);
        std::memcpy(mem.data() + addr, src, len);
    }

    template <typename T>
    T
    load(Addr addr) const
    {
        T v;
        read(addr, &v, sizeof(T));
        return v;
    }

    template <typename T>
    void
    store(Addr addr, T v)
    {
        write(addr, &v, sizeof(T));
    }

  private:
    sim::ZeroPages mem;
};

} // namespace dpu::mem

#endif // DPU_MEM_BACKING_STORE_HH
