/**
 * @file
 * The dpCore execution model.
 *
 * Each dpCore runs its software as a cooperative fiber of ordinary
 * C++ (the paper's applications are cross-compiled C; ours are C++
 * kernels that charge cycles through this class's primitives). The
 * core keeps a "lazy clock": compute charges accumulate in
 * aheadTicks and only synchronise with the global event queue when
 * the core must interact with another agent (DMS event wait, ATE
 * request, mailbox, long quanta). Applications never see the event
 * queue; they call blocking primitives exactly like the code in the
 * paper's Listing 1.
 *
 * Address routing: DMEM addresses go to the local scratchpad at LSU
 * speed; DDR addresses go through the non-coherent L1-D / shared L2
 * hierarchy. The L1-D counts into the core's own stat group, as
 * "l1d.hits" and so on. Remote DMEM is reachable only via the ATE or
 * DMS, as on the chip.
 */

#ifndef DPU_CORE_DP_CORE_HH
#define DPU_CORE_DP_CORE_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "core/isa.hh"
#include "mem/addr.hh"
#include "mem/cache.hh"
#include "mem/dmem.hh"
#include "sim/agent.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"
#include "sim/trace.hh"
#include "sim/types.hh"
#include "util/crc32.hh"

namespace dpu::core {

class DpCore;

/** A software image for a core: the "main" of its binary. */
using Kernel = std::function<void(DpCore &)>;

/** An interrupt service routine (ATE software RPC, mailbox, timer). */
using Isr = std::function<void(DpCore &)>;

/** Number of dpCores per macro (Figure 1). */
constexpr unsigned coresPerMacro = 8;

/** One of the 32 data processing cores. */
class DpCore
{
  public:
    /**
     * @param id Core id, 0..31 (macro = id / 8).
     * @param eq The global event queue.
     * @param l2 The macro's shared 256 KB L2 (backed by DDR).
     * @param sram The core's SRAM: sramBytes() bytes that read as
     *        zero, a fresh slice of a demand-zero region. It holds
     *        the DMEM and the L1-D's lines.
     */
    DpCore(unsigned id, sim::EventQueue &eq, mem::Cache &l2,
           std::span<std::uint8_t> sram);

    /** Bytes of SRAM one core takes: its DMEM and its L1-D's lines,
     *  each from a page boundary. */
    static std::size_t sramBytes();

    unsigned id() const { return coreId; }
    unsigned macro() const { return coreId / coresPerMacro; }

    // ------------------------------------------------------------
    // Program control
    // ------------------------------------------------------------

    /** Install and start the core's kernel at the current tick. */
    void start(Kernel kernel);

    /** True once the kernel has returned. */
    bool finished() const { return agent.finished(); }

    /** True while this core's fiber is the one executing. */
    bool running() const { return agent.running(); }

    // ------------------------------------------------------------
    // Time
    // ------------------------------------------------------------

    /** The core's current logical time (may be ahead of the EQ). */
    sim::Tick now() const { return eq.now() + aheadTicks; }

    /** Charge @p n raw pipeline cycles. */
    void
    cycles(sim::Cycles n)
    {
        aheadTicks += sim::dpCoreClock.cyclesToTicks(n);
        // maybeSync's own test, hoisted into one compare: almost
        // every charge needs neither a sync nor an interrupt.
        if (aheadTicks >= syncAt)
            maybeSync();
    }

    /**
     * Charge a dual-issue bundle: @p alu_ops ALU-pipe ops co-issued
     * with @p lsu_ops LSU-pipe ops take max(alu, lsu) cycles.
     */
    void
    dualIssue(std::uint64_t alu_ops, std::uint64_t lsu_ops)
    {
        aluOps += alu_ops;
        lsuOps += lsu_ops;
        cycles(std::max(alu_ops, lsu_ops));
    }

    /** Charge @p n single-issue ALU ops. */
    void
    alu(std::uint64_t n = 1)
    {
        aluOps += n;
        cycles(n * aluCycles);
    }

    /** Charge one multiply of a value with @p bits significant bits. */
    void
    mul(unsigned bits = 32)
    {
        ++muls;
        const sim::Cycles c = mulCycles(bits);
        if (DPU_TRACE_ARMED) {
            DPU_TRACE_COMPLETE(sim::TraceCat::Core, coreId, "mul",
                               now(), sim::dpCoreClock.cyclesToTicks(c),
                               "bits", bits, nullptr, 0);
        }
        cycles(c);
    }

    /** Charge one iterative divide. */
    void
    div()
    {
        ++divs;
        cycles(divCycles);
    }

    /**
     * Charge a conditional branch. The static predictor takes
     * backward branches and falls through forward ones.
     */
    void
    branch(bool taken, bool backward)
    {
        ++branches;
        bool predicted_taken = backward;
        if (taken == predicted_taken) {
            cycles(branchCycles);
        } else {
            ++branchMisses;
            cycles(branchCycles + branchMissCycles);
        }
    }

    /** Block the core for @p n cycles of simulated time. */
    void sleepCycles(sim::Cycles n);

    /** Count @p n CRC hashes (multiplies) whose issue slots the
     *  kernel charged itself, in one bulk dualIssue() or cycles(). */
    void bulkCrcOps(std::uint64_t n) { crcOps += n; }
    void bulkMuls(std::uint64_t n) { muls += n; }

    // ------------------------------------------------------------
    // Analytics ISA extensions (functional + single-cycle cost)
    // ------------------------------------------------------------

    /** CRC32 hashcode of a 32-bit key in one cycle (Section 2.2). */
    std::uint32_t
    crcHash(std::uint32_t key)
    {
        ++crcOps;
        cycles(crc32Cycles);
        return util::crc32Key(key);
    }

    /** CRC32 hashcode of a 64-bit key (two issue slots). */
    std::uint32_t
    crcHash64(std::uint64_t key)
    {
        ++crcOps;
        cycles(2 * crc32Cycles);
        return util::crc32Key64(key);
    }

    /** Population count in one cycle. */
    unsigned
    popcount(std::uint64_t v)
    {
        ++popcounts;
        cycles(popcountCycles);
        return unsigned(__builtin_popcountll(v));
    }

    /** Number of trailing zeros via the popcount unit (4 cycles). */
    unsigned
    ntz(std::uint64_t v)
    {
        ++ntzOps;
        cycles(ntzCycles);
        return v ? unsigned(__builtin_ctzll(v)) : 64;
    }

    /** Number of leading zeros, no hardware assist (13 cycles). */
    unsigned
    nlz(std::uint64_t v)
    {
        ++nlzOps;
        cycles(nlzCycles);
        return v ? unsigned(__builtin_clzll(v)) : 64;
    }

    /**
     * FILT: compare @p n packed elements in DMEM against [lo, hi]
     * and append result bits to a bit vector in DMEM. Models the
     * BVLD/FILT loop at its hardware rate; the functional result is
     * exact. Elements are @p elem_bytes wide (1/2/4/8), unsigned.
     *
     * @return number of elements that passed.
     */
    std::uint64_t filt(std::uint32_t src_off, std::uint32_t n,
                       unsigned elem_bytes, std::uint64_t lo,
                       std::uint64_t hi, std::uint32_t bv_off);

    // ------------------------------------------------------------
    // Memory
    // ------------------------------------------------------------

    /** Typed load; routes to DMEM or through the cache hierarchy. */
    template <typename T>
    T
    load(mem::Addr addr)
    {
        T v{};
        readBytes(addr, &v, sizeof(T));
        return v;
    }

    /** Typed store; see load. */
    template <typename T>
    void
    store(mem::Addr addr, T v)
    {
        writeBytes(addr, &v, sizeof(T));
    }

    /** Bulk read charged at one LSU op per 8 bytes. */
    void readBytes(mem::Addr addr, void *dst, std::uint32_t len);

    /** Bulk write charged at one LSU op per 8 bytes. */
    void writeBytes(mem::Addr addr, const void *src, std::uint32_t len);

    /** Direct handle to this core's scratchpad. */
    mem::Dmem &dmem() { return scratch; }
    const mem::Dmem &dmem() const { return scratch; }

    /** This core's DMEM aperture base address. */
    mem::Addr dmemBase() const { return mem::dmemAddr(coreId); }

    /**
     * Flush (write back) cached lines covering [addr, addr+len)
     * through both the private L1-D and the macro's shared L2, so
     * the data reaches DDR where the DMS and other macros see it.
     */
    void cacheFlush(mem::Addr addr, std::uint64_t len);

    /** Invalidate cached lines covering [addr, addr+len) in L1 + L2. */
    void cacheInvalidate(mem::Addr addr, std::uint64_t len);

    /** The private L1-D (tests probe residency/dirtiness). */
    mem::Cache &l1d() { return l1dCache; }

    /** The macro's shared L2. */
    mem::Cache &l2() { return l2Cache; }

    // ------------------------------------------------------------
    // Watchpoints (Section 2.2: debug registers instead of an MMU)
    // ------------------------------------------------------------

    /** Raise on any access intersecting [addr, addr+len). */
    void addWatchpoint(mem::Addr addr, std::uint64_t len,
                       std::function<void(mem::Addr, bool)> handler);

    // ------------------------------------------------------------
    // Interrupts & blocking (used by ATE / MBC / DMS glue)
    // ------------------------------------------------------------

    /**
     * Queue an interrupt service routine. Runs in this core's fiber
     * at the next synchronisation point, charging the interrupt
     * entry/exit overhead; wakes the core if it is blocked.
     */
    void postInterrupt(Isr isr);

    /**
     * Block the calling fiber until @p pred becomes true or the
     * absolute @p deadline passes, whichever is first. Interrupts
     * are delivered while blocked (the handler runs, then the wait
     * resumes), matching the chip's cooperative scheduling model.
     * Wakers must call wake(). @return whether @p pred held.
     */
    bool blockUntil(const std::function<bool()> &pred,
                    sim::Tick deadline = sim::maxTick);

    /** Wake a blocked core at tick @p when (>= eq.now()), or at its
     *  wait's deadline if that comes first. */
    void wake(sim::Tick when) { agent.wake(when); }

    /** The current blockUntil's id: a waker its predicate arms
     *  passes it to wake(when, wait) so that it cannot end a later
     *  wait. */
    std::uint64_t waitId() const { return agent.waitId(); }

    /** wake(@p when), if wait @p wait has not ended. */
    void
    wake(sim::Tick when, std::uint64_t wait)
    {
        agent.wake(when, wait);
    }

    /**
     * Synchronise the lazy clock with the event queue and deliver
     * pending interrupts. Application code never needs this; module
     * glue calls it before cross-agent interactions.
     */
    void sync();

    sim::EventQueue &eventQueue() { return eq; }
    sim::StatGroup &statGroup() { return stat; }

    /**
     * Stall the pipeline for @p t ticks starting no earlier than
     * @p from (used by the ATE to model remote-op injection).
     */
    void
    injectStall(sim::Tick t)
    {
        aheadTicks += t;
        ateInjectTicks += t;
    }

    /**
     * Debug hook fired on every direct cached DDR access (not DMEM,
     * not ATE remote ops): (core, addr, len, is_write). Used by the
     * Section 4 debugging tools (coherence checker). Null when
     * disarmed; the hot path pays one branch.
     */
    using MemTrace = std::function<void(unsigned, mem::Addr,
                                        std::uint32_t, bool)>;
    void setMemTrace(MemTrace hook) { memTrace = std::move(hook); }

  private:
    void maybeSync();
    void deliverInterrupts();
    void checkWatchpoints(mem::Addr addr, std::uint32_t len,
                          bool write);

    unsigned coreId;
    sim::EventQueue &eq;
    sim::StatGroup stat;

    /** Per-op counters (sim/stats.hh): each charged instruction
     *  pays a plain add. */
    sim::Counter aluOps{stat, "aluOps"};
    sim::Counter lsuOps{stat, "lsuOps"};
    sim::Counter muls{stat, "muls"};
    sim::Counter divs{stat, "divs"};
    sim::Counter branches{stat, "branches"};
    sim::Counter branchMisses{stat, "branchMisses"};
    sim::Counter blocks{stat, "blocks"};
    sim::Counter crcOps{stat, "crcOps"};
    sim::Counter popcounts{stat, "popcounts"};
    sim::Counter ntzOps{stat, "ntzOps"};
    sim::Counter nlzOps{stat, "nlzOps"};
    sim::Counter filtOps{stat, "filtOps"};
    sim::Counter interruptsPosted{stat, "interruptsPosted"};
    sim::Counter interruptsTaken{stat, "interruptsTaken"};
    sim::Counter ateInjectTicks{stat, "ateInjectTicks"};
    sim::Counter cacheFlushes{stat, "cacheFlushes"};
    sim::Counter redundantFlushes{stat, "redundantFlushes"};
    sim::Counter cacheInvalidates{stat, "cacheInvalidates"};

    mem::Dmem scratch;
    mem::Cache &l2Cache;
    mem::Cache l1dCache;

    /** The kernel's fiber: sync sleeps it, blockUntil blocks it. */
    sim::Agent agent{eq, sim::EvTag::Core, "core.resume"};

    /** How far the core's logical clock runs ahead of the EQ. */
    sim::Tick aheadTicks = 0;

    /** Force a sync after this much accumulated lead (20 us). */
    static constexpr sim::Tick syncQuantum = 20'000'000;

    /** The lead at which a charge calls maybeSync: syncQuantum, or
     *  0 while an interrupt is pending, so that the next charge
     *  takes it. postInterrupt lowers it, deliverInterrupts raises
     *  it once the queue is empty. */
    sim::Tick syncAt = syncQuantum;

    std::deque<Isr> pendingIsrs;
    bool inIsr = false;

    MemTrace memTrace;

    struct Watchpoint
    {
        mem::Addr base;
        std::uint64_t len;
        std::function<void(mem::Addr, bool)> handler;
    };
    std::vector<Watchpoint> watchpoints;
};

} // namespace dpu::core

#endif // DPU_CORE_DP_CORE_HH
