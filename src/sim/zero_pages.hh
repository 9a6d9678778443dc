/**
 * @file
 * A demand-zero byte region: the storage behind every chip's DDR
 * image (mem::BackingStore), every chip's SRAM block and every
 * fiber's stack (sim::Fiber).
 *
 * The region is an anonymous private mapping, so it reads as zero
 * and the host kernel supplies a page only when the run first
 * writes it: a chip's 4 GiB DDR image costs host RAM in proportion
 * to the bytes a workload stores there, an SRAM to the pages a run
 * writes, and a fiber stack to its deepest call chain. This is how
 * downmem's UPMEM emulator backs each emulated DPU, and it is what
 * lets one host model racks of chips.
 * MADV_NOHUGEPAGE keeps one touched byte from pulling in a whole
 * transparent huge page.
 *
 * One region can hold many SRAMs: carve() hands out page-aligned
 * slices of it, as downmem carves every emulated DPU from one
 * mapping. A chip maps one region for its 32 DMEMs and the lines of
 * its L1-Ds and L2s (soc::Soc), so it holds two regions, four
 * kernel mappings, however many SRAMs it has. The slices need no
 * guard page between them: each SRAM range-checks its accesses.
 *
 * One PROT_NONE guard page sits directly below data(): a fiber that
 * overflows its stack, or an access that lands just below a DDR
 * image or an SRAM block, faults at once instead of writing into a
 * neighbour.
 */

#ifndef DPU_SIM_ZERO_PAGES_HH
#define DPU_SIM_ZERO_PAGES_HH

#include <cstddef>
#include <cstdint>
#include <span>

namespace dpu::sim {

/** An owned, zero-initialised region whose pages appear on demand. */
class ZeroPages
{
  public:
    /** Map @p n usable bytes plus the guard page below them. */
    explicit ZeroPages(std::size_t n);

    ZeroPages(const ZeroPages &) = delete;
    ZeroPages &operator=(const ZeroPages &) = delete;
    ~ZeroPages();

    std::uint8_t *data() { return first; }
    const std::uint8_t *data() const { return first; }
    std::size_t size() const { return bytes; }

    /** @p n rounded up to whole host pages: a region sized as the
     *  sum of its slices' pageRound() has room to carve them all. */
    static std::size_t pageRound(std::size_t n);

    /** The next @p n bytes, from the first page boundary past the
     *  previous slice. Still zero if nothing wrote them; fatal when
     *  the region has too few bytes left. */
    std::span<std::uint8_t> carve(std::size_t n);

  private:
    std::uint8_t *map = nullptr;   ///< mapping start: the guard page
    std::size_t mapBytes = 0;      ///< guard + usable, page-rounded
    std::uint8_t *first = nullptr; ///< first usable byte
    std::size_t bytes = 0;         ///< usable bytes
    std::size_t carved = 0;        ///< bytes handed out by carve()
};

} // namespace dpu::sim

#endif // DPU_SIM_ZERO_PAGES_HH
