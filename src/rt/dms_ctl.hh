/**
 * @file
 * The DMS programming interface of Section 3.1 / Listing 1.
 *
 * DmsCtl wraps one dpCore's view of the DMS: it carves a descriptor
 * arena out of the top of the core's DMEM, offers the paper's
 * dms_setup_* / dms_push / dms_wfe / clear_event calls (camelCased),
 * and provides the double/triple-buffered streaming helpers every
 * co-design application uses (StreamReader / StreamWriter).
 */

#ifndef DPU_RT_DMS_CTL_HH
#define DPU_RT_DMS_CTL_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "core/dp_core.hh"
#include "dms/dms.hh"

namespace dpu::rt {

/** A descriptor handle: the DMEM offset where it was encoded. */
using DescHandle = std::uint16_t;

class DmsCtl;

/**
 * Fluent builder for DDR<->DMEM transfer descriptors, the one way
 * to encode Listing 1's dms_setup_ddr_to_dmem / dms_setup_dmem_to_ddr.
 *
 * A positional (rows, width, src, dst, event) call would be a
 * transposition footgun — rows/width and src/dst are all integers,
 * so swapped arguments compile silently. The builder names every
 * operand and validates the combination before encoding:
 *
 *   auto d = ctl.ddrToDmem().rows(256).width(4)
 *               .from(src_ddr).to(dmem_off).event(0).setup();
 *   auto w = ctl.dmemToDdr().rows(n).width(4)
 *               .from(dmem_off).to(dst_ddr).event(5).setup();
 *
 * from()/to() are direction-relative: the DMEM-side operand (the
 * destination of ddrToDmem(), the source of dmemToDdr()) must fit
 * the 16-bit DMEM address field and the transfer must stay inside
 * the scratchpad — both asserted at build time, which is exactly
 * the check a transposed call fails. autoInc() arms the DDR-side
 * auto-increment used by Listing 1 loop groups (on by default).
 * Terminal operations: setup() encodes
 * into the arena and returns the handle; push(ch) is setup() +
 * dms_push.
 */
class DmsXfer
{
  public:
    DmsXfer &
    rows(std::uint32_t n)
    {
        nRows = n;
        return *this;
    }

    /** Element width in bytes (1/2/4/8). */
    DmsXfer &
    width(std::uint8_t bytes)
    {
        elemWidth = bytes;
        return *this;
    }

    /** Transfer source: a DDR address (ddrToDmem) or DMEM offset. */
    DmsXfer &
    from(mem::Addr src)
    {
        srcOperand = src;
        haveSrc = true;
        return *this;
    }

    /** Transfer destination, mirroring from(). */
    DmsXfer &
    to(mem::Addr dst)
    {
        dstOperand = dst;
        haveDst = true;
        return *this;
    }

    /** Completion/backpressure event (0..31; see Descriptor). */
    DmsXfer &
    event(int e)
    {
        notify = std::int8_t(e);
        return *this;
    }

    /** Extra wait-for-clear precondition event. */
    DmsXfer &
    waitEvent(int e)
    {
        wait = std::int8_t(e);
        return *this;
    }

    /** DDR-side address auto-increment across loop iterations. */
    DmsXfer &
    autoInc(bool on = true)
    {
        ddrInc = on;
        return *this;
    }

    DmsXfer &
    noAutoInc()
    {
        return autoInc(false);
    }

    /** Validate operands and produce the decoded descriptor. */
    dms::Descriptor descriptor() const;

    /** Encode into the arena; @return the descriptor's handle. */
    DescHandle setup();

    /** setup() + dms_push onto channel @p ch. */
    DescHandle push(unsigned ch);

  private:
    friend class DmsCtl;

    DmsXfer(DmsCtl &c, dms::DescType t) : ctl(c), type(t) {}

    DmsCtl &ctl;
    dms::DescType type;
    std::uint32_t nRows = 0;
    std::uint8_t elemWidth = 4;
    mem::Addr srcOperand = 0;
    mem::Addr dstOperand = 0;
    std::int8_t notify = -1;
    std::int8_t wait = -1;
    bool ddrInc = true;
    bool haveSrc = false;
    bool haveDst = false;
};

/** One core's DMS control block. */
class DmsCtl
{
  public:
    /** Top-of-DMEM bytes reserved for the descriptor arena. */
    static constexpr std::uint32_t arenaBytes = 2048;

    /** First DMEM offset used by the arena. */
    static constexpr std::uint32_t arenaBase =
        mem::dmemBytes - arenaBytes;

    DmsCtl(core::DpCore &c, dms::Dms &dms) : core(c), dmsRef(dms) {}

    /** dms_setup_ddr_to_dmem: start a DDR -> DMEM transfer. */
    DmsXfer
    ddrToDmem()
    {
        return DmsXfer(*this, dms::DescType::DdrToDmem);
    }

    /** dms_setup_dmem_to_ddr: start a DMEM -> DDR transfer. */
    DmsXfer
    dmemToDdr()
    {
        return DmsXfer(*this, dms::DescType::DmemToDdr);
    }

    /** dms_setup_loop: jump back to @p target @p iterations times. */
    DescHandle setupLoop(DescHandle target, std::uint16_t iterations);

    /** Encode an arbitrary descriptor into the arena. */
    DescHandle setup(const dms::Descriptor &d);

    /**
     * Re-encode a descriptor in place over an existing arena slot.
     * The DMAD copies descriptors at push time, so a slot may be
     * safely rewritten once its previous push has been consumed
     * (i.e. after waiting on its completion event).
     */
    void rewrite(DescHandle at, const dms::Descriptor &d);

    /** dms_push onto channel @p ch (0 = read, 1 = write typically). */
    void push(DescHandle desc, unsigned ch = 0);

    /** dms_wfe: block until @p event is set. */
    void wfe(unsigned event) { dmsRef.wfe(core, event); }

    /**
     * Bounded dms_wfe: wait at most @p timeout ticks and report
     * descriptor error completions. The recovery-path form of wfe():
     * a kernel that must not hang on a wedged or faulting DMS checks
     * the result instead of trusting the buffer.
     */
    dms::Dms::WfeResult
    wfeFor(unsigned event, sim::Tick timeout)
    {
        return dmsRef.wfeFor(core, event, timeout);
    }

    /** clear_event: hand the buffer back to the DMS. */
    void clearEvent(unsigned event) { dmsRef.clearEvent(core, event); }

    /** Poll an event without blocking. */
    bool
    eventSet(unsigned event) const
    {
        return dmsRef.eventSet(localId(), event);
    }

    /** True when @p event last completed with error status. */
    bool
    eventError(unsigned event) const
    {
        return dmsRef.eventError(localId(), event);
    }

    /** Reset the descriptor arena (new program phase). */
    void
    resetArena()
    {
        arenaNext = arenaBase;
    }

    core::DpCore &dpCore() { return core; }
    dms::Dms &dms() { return dmsRef; }

  private:
    unsigned
    localId() const
    {
        return core.id() % 32;
    }

    core::DpCore &core;
    dms::Dms &dmsRef;
    std::uint32_t arenaNext = arenaBase;
};

/**
 * Stream a DDR range through DMEM with an N-buffer descriptor loop
 * (the Listing 1 pattern generalized). The source region must be
 * readable up to the next nBufs*bufBytes boundary — the trailing
 * loop iteration may prefetch past the logical end, exactly as the
 * paper's 3-descriptor/16 MB example relies on exact fit.
 */
class StreamReader
{
  public:
    /**
     * @param ctl         The core's DMS control block.
     * @param src         DDR source base.
     * @param total_bytes Logical bytes to consume.
     * @param dmem_base   DMEM offset of the buffer ring.
     * @param buf_bytes   Bytes per buffer (multiple of 4).
     * @param n_bufs      Ring depth (2 = double buffering).
     * @param first_event First of n_bufs consecutive event ids.
     */
    StreamReader(DmsCtl &ctl, mem::Addr src,
                 std::uint64_t total_bytes, std::uint16_t dmem_base,
                 std::uint32_t buf_bytes, unsigned n_bufs = 2,
                 unsigned first_event = 0, unsigned channel = 0);

    /**
     * Consume the stream: @p fn is called once per buffer with
     * (dmem_offset, bytes_valid). Charges no per-byte cycles itself;
     * the consumer reads DMEM through the core as usual.
     */
    void forEach(const std::function<void(std::uint32_t,
                                          std::uint32_t)> &fn);

  private:
    DmsCtl &ctl;
    std::uint64_t totalBytes;
    std::uint16_t dmemBase;
    std::uint32_t bufBytes;
    unsigned nBufs;
    unsigned firstEvent;
};

/**
 * Mirror of StreamReader for writing results back at line rate:
 * acquire() a DMEM slot, fill it, commit(bytes), and the DMS drains
 * it to DDR behind the computation. Appends sequentially at @p dst.
 */
class StreamWriter
{
  public:
    StreamWriter(DmsCtl &ctl, mem::Addr dst, std::uint16_t dmem_base,
                 std::uint32_t buf_bytes, unsigned n_bufs = 2,
                 unsigned first_event = 8, unsigned channel = 1);

    /**
     * DMEM offset of the next buffer to fill; blocks until the
     * slot's previous drain (if any) has completed.
     */
    std::uint32_t acquire();

    /** Queue the filled slot for draining (@p bytes, 4 B aligned). */
    void commit(std::uint32_t bytes);

    /** Block until every queued buffer has drained to DDR. */
    void finish();

    /** Total bytes committed so far. */
    std::uint64_t bytesWritten() const { return written; }

  private:
    DmsCtl &ctl;
    mem::Addr dst;
    std::uint16_t dmemBase;
    std::uint32_t bufBytes;
    unsigned nBufs;
    unsigned firstEvent;
    unsigned channel;
    unsigned cur = 0;
    std::uint64_t written = 0;
    std::vector<bool> pending;
    std::vector<DescHandle> slots;
};

} // namespace dpu::rt

#endif // DPU_RT_DMS_CTL_HH
