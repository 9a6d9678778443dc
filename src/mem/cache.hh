/**
 * @file
 * Non-coherent write-back cache.
 *
 * The DPU's caches hold real data and are NOT kept coherent by
 * hardware (Section 2.3): software issues explicit flush and
 * invalidate instructions. This model stores actual line contents,
 * so a core that reads a shared structure without invalidating first
 * genuinely observes stale data — the same bug a programmer would
 * hit on silicon, and the behaviour the coherence tests pin down.
 *
 * Geometry per the paper: 16 KB L1-D and 8 KB L1-I per dpCore and a
 * 256 KB L2 shared by the 8 dpCores of a macro.
 *
 * The lines, tags and data alike, sit in a slice of the chip's one
 * demand-zero SRAM block (sim::ZeroPages::carve, soc::Soc), like a
 * chip's DDR image: a fresh cache is all invalid, and host RAM
 * follows the sets a run touches. A cache owns no mapping, and
 * building one touches no line.
 *
 * A cache owns no stat group either. It counts into a group its
 * owner passes in: a core's L1-D into the core's group as
 * "l1d.hits" and so on, and a macro's L2 into the "macro<m>.l2"
 * group the chip builds beside it. So a chip builds its caches with
 * its other blocks, and a cache no run touches adds no cell to a
 * snapshot.
 */

#ifndef DPU_MEM_CACHE_HH
#define DPU_MEM_CACHE_HH

#include <cstdint>
#include <span>
#include <type_traits>

#include "mem/mem_port.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace dpu::mem {

/** Configuration for one cache level. */
struct CacheParams
{
    std::uint32_t sizeBytes;
    std::uint32_t assoc;
    sim::Cycles hitCycles;   ///< lookup latency in core cycles
};

/** Set-associative, write-back, write-allocate, true-LRU cache. */
class Cache : public MemPort
{
  public:
    /**
     * @param stats  The owner's group, which the cache counts into.
     * @param prefix The cells' prefix in @p stats ("l1d" reads as
     *               "l1d.misses"), or nullptr for bare cell names; a
     *               string that lives as long as @p stats.
     * @param params Geometry and hit latency.
     * @param downstream The next level (L2 or main memory).
     * @param sram  The lines' storage: at least sramBytes(@p params)
     *              bytes that read as zero (a fresh slice of a
     *              demand-zero region).
     */
    Cache(sim::StatGroup &stats, const char *prefix,
          const CacheParams &params, MemPort &downstream,
          std::span<std::uint8_t> sram);

    /** Bytes of SRAM the lines of a @p params cache take. */
    static std::size_t sramBytes(const CacheParams &params);

    /**
     * Read @p len bytes through the cache (may span lines).
     * @return completion tick.
     */
    sim::Tick read(Addr addr, void *dst, std::uint32_t len,
                   sim::Tick when);

    /** Write @p len bytes through the cache (write-allocate). */
    sim::Tick write(Addr addr, const void *src, std::uint32_t len,
                    sim::Tick when);

    /** MemPort interface used when this cache is a downstream. */
    sim::Tick readLine(Addr addr, void *dst, sim::Tick when) override;
    sim::Tick writeLine(Addr addr, const void *src,
                        sim::Tick when) override;

    /** What a flushRange() did. */
    struct Flushed
    {
        sim::Tick done;      ///< completion tick of the last writeback
        std::uint64_t lines; ///< dirty lines written back
    };

    /**
     * Write back any dirty lines intersecting [addr, addr+len) to
     * the downstream level; lines stay resident and clean. This is
     * the dpCore's cache-flush instruction.
     */
    Flushed flushRange(Addr addr, std::uint64_t len, sim::Tick when);

    /**
     * Drop any lines intersecting [addr, addr+len) WITHOUT writing
     * them back — dirty data is lost, exactly as the invalidate
     * instruction behaves on chip.
     */
    sim::Tick invalidateRange(Addr addr, std::uint64_t len,
                              sim::Tick when);

    /** True if the line holding @p addr is resident. */
    bool contains(Addr addr) const;

    /** True if the line holding @p addr is resident and dirty. */
    bool isDirty(Addr addr) const;

  private:
    /**
     * One way of a set. A trivial type, and so implicit-lifetime:
     * the lines come into being with the demand-zero region that
     * holds them, and all-zero bytes are a line's initial state
     * (invalid, clean, tag 0, never used, data zero). No line is
     * constructed or written before the run first touches its set.
     */
    struct Line
    {
        bool valid;
        bool dirty;
        Addr tag;
        std::uint64_t lastUse;
        std::uint8_t data[lineBytes];
    };
    static_assert(std::is_trivial_v<Line>);

    /** Locate a resident line; nullptr on miss. */
    Line *findLine(Addr line_addr);
    const Line *findLine(Addr line_addr) const;

    /**
     * Ensure the line holding @p line_addr is resident, evicting and
     * refilling as needed. @return (line, completion tick).
     */
    std::pair<Line *, sim::Tick> getLine(Addr line_addr,
                                         sim::Tick when,
                                         bool fill_from_downstream);

    std::uint32_t setIndex(Addr line_addr) const;

    /** Per-access counters, in the owner's group (sim/stats.hh). */
    sim::Counter hits;
    sim::Counter misses;
    sim::Counter writebacks;
    sim::Counter fills;
    sim::Counter flushedLines;
    sim::Counter invalidatedLines;
    CacheParams p;
    MemPort &next;
    std::uint32_t nSets;
    std::span<Line> lines;    ///< nSets * assoc, set-major
    std::uint64_t useClock = 0;
    sim::Tick hitLatency;
};

} // namespace dpu::mem

#endif // DPU_MEM_CACHE_HH
