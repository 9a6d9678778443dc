#include "core/dp_core.hh"

#include <algorithm>
#include <cstring>

#include "sim/zero_pages.hh"

namespace dpu::core {

namespace {

/** Geometry of the per-core L1-D (Section 2.3: 16 KB). */
const mem::CacheParams l1dParams{16 * 1024, 4, 1};

/**
 * FILT's functional half over @p n elements of type @p T at @p src:
 * eight element reads, then their bit-vector byte, so a bit vector
 * that overlaps the elements reads back as it did one element at a
 * time. The caller checks both DMEM ranges.
 */
template <typename T>
std::uint64_t
filtScan(const std::uint8_t *src, std::uint8_t *bv, std::uint32_t n,
         std::uint64_t lo, std::uint64_t hi)
{
    std::uint64_t passed = 0;
    for (std::uint32_t i = 0; i < n; i += 8) {
        const std::uint32_t group = std::min<std::uint32_t>(8, n - i);
        std::uint8_t bits = 0;
        for (std::uint32_t k = 0; k < group; ++k) {
            T v;
            std::memcpy(&v, src + std::size_t(i + k) * sizeof(T),
                        sizeof(T));
            const bool hit = v >= lo && v <= hi;
            passed += hit;
            bits |= std::uint8_t(hit) << k;
        }
        bv[i / 8] = bits;
    }
    return passed;
}

} // namespace

DpCore::DpCore(unsigned id, sim::EventQueue &eq_, mem::Cache &l2,
               std::span<std::uint8_t> sram)
    : coreId(id), eq(eq_), stat("core" + std::to_string(id)),
      scratch(sram), l2Cache(l2),
      // min(): a short slice fails the assert below, not the
      // subspan's precondition.
      l1dCache(stat, "l1d", l1dParams, l2,
               sram.subspan(std::min(
                   sram.size(),
                   sim::ZeroPages::pageRound(mem::dmemBytes))))
{
    sim_assert(sram.size() >= sramBytes(),
               "core %u given a %zu-byte SRAM slice for %zu bytes", id,
               sram.size(), sramBytes());
}

std::size_t
DpCore::sramBytes()
{
    return sim::ZeroPages::pageRound(mem::dmemBytes) +
           sim::ZeroPages::pageRound(mem::Cache::sramBytes(l1dParams));
}

// ----------------------------------------------------------------
// Program control
// ----------------------------------------------------------------

void
DpCore::start(Kernel kernel)
{
    aheadTicks = 0;
    agent.start([this, kernel = std::move(kernel)] {
        kernel(*this);
        // Drain the lazy clock so the kernel's last charges are
        // reflected in simulated time before the fiber finishes.
        sync();
    });
}

// ----------------------------------------------------------------
// Time & synchronisation
// ----------------------------------------------------------------

void
DpCore::maybeSync()
{
    if (!running())
        return;
    if (aheadTicks >= syncQuantum ||
        (!pendingIsrs.empty() && !inIsr)) {
        sync();
    }
}

void
DpCore::sync()
{
    sim_assert(running(), "sync from outside core %u's fiber", coreId);
    // Loop: delivering an ISR charges cycles, which must again be
    // reflected in simulated time before we return.
    while (true) {
        if (aheadTicks > 0) {
            sim::Tick target = eq.now() + aheadTicks;
            aheadTicks = 0;
            agent.sleepUntil(target);
        }
        if (!pendingIsrs.empty() && !inIsr)
            deliverInterrupts();
        if (aheadTicks == 0)
            break;
    }
}

void
DpCore::sleepCycles(sim::Cycles n)
{
    cycles(n);
    sync();
}

bool
DpCore::blockUntil(const std::function<bool()> &pred,
                   sim::Tick deadline)
{
    sync();
    agent.beginWait();
    const sim::Tick t0 = eq.now();
    bool blocked = false;
    bool held = pred();
    while (!held && eq.now() < deadline) {
        ++blocks;
        blocked = true;
        deadline = agent.block(deadline);
        // Woken by wake() or the deadline; running again here.
        deliverInterrupts();
        held = pred();
    }
    if (blocked) {
        DPU_TRACE_COMPLETE(sim::TraceCat::Core, coreId, "blocked", t0,
                           eq.now() - t0, nullptr, 0, nullptr, 0);
    }
    return held;
}

void
DpCore::postInterrupt(Isr isr)
{
    pendingIsrs.push_back(std::move(isr));
    syncAt = 0;
    ++interruptsPosted;
    agent.wake(eq.now());
}

void
DpCore::deliverInterrupts()
{
    if (inIsr)
        return;
    while (!pendingIsrs.empty()) {
        Isr isr = std::move(pendingIsrs.front());
        pendingIsrs.pop_front();
        inIsr = true;
        const sim::Tick t0 = now();
        cycles(interruptCycles);
        ++interruptsTaken;
        isr(*this);
        DPU_TRACE_COMPLETE(sim::TraceCat::Core, coreId, "isr", t0,
                           now() - t0, nullptr, 0, nullptr, 0);
        inIsr = false;
    }
    syncAt = syncQuantum;
}

// ----------------------------------------------------------------
// Analytics ISA extensions
// ----------------------------------------------------------------

std::uint64_t
DpCore::filt(std::uint32_t src_off, std::uint32_t n,
             unsigned elem_bytes, std::uint64_t lo, std::uint64_t hi,
             std::uint32_t bv_off)
{
    sim_assert(elem_bytes == 1 || elem_bytes == 2 || elem_bytes == 4 ||
               elem_bytes == 8, "bad FILT element width %u",
               elem_bytes);
    sim_assert(src_off + std::uint64_t(n) * elem_bytes <= mem::Dmem::size,
               "FILT elements out of DMEM: %u x %u bytes at %u", n,
               elem_bytes, src_off);
    sim_assert(bv_off + (std::uint64_t(n) + 7) / 8 <= mem::Dmem::size,
               "FILT bit vector out of DMEM: %u bits at %u", n, bv_off);

    const std::uint8_t *src = scratch.raw() + src_off;
    std::uint8_t *bv = scratch.raw() + bv_off;
    std::uint64_t passed;
    switch (elem_bytes) {
      case 1:
        passed = filtScan<std::uint8_t>(src, bv, n, lo, hi);
        break;
      case 2:
        passed = filtScan<std::uint16_t>(src, bv, n, lo, hi);
        break;
      case 4:
        passed = filtScan<std::uint32_t>(src, bv, n, lo, hi);
        break;
      default:
        passed = filtScan<std::uint64_t>(src, bv, n, lo, hi);
        break;
    }

    // Timing: the element load pairs with FILT in the dual-issue
    // pipe, but the predicate-bit accumulate (shift/or) adds an ALU
    // op every other tuple, the unrolled loop adds a predicted
    // backward branch every 8 tuples, and the accumulated
    // bit-vector word spills every 64 tuples. End to end with the
    // DMS tile waits this lands at the paper's ~1.65 cycles/tuple
    // (482 Mtuples/s, Section 5.3).
    sim::Cycles c = n + n / 2;  // paired LD+FILT, alternate bit-pack
    c += n / 8 + 1;             // loop branches
    c += (n / 64 + 1) * 2;      // bit-vector spill stores
    filtOps += n;
    cycles(c);
    return passed;
}

// ----------------------------------------------------------------
// Memory
// ----------------------------------------------------------------

void
DpCore::checkWatchpoints(mem::Addr addr, std::uint32_t len, bool write)
{
    if (watchpoints.empty())
        return;
    for (auto &wp : watchpoints) {
        if (addr < wp.base + wp.len && wp.base < addr + len)
            wp.handler(addr, write);
    }
}

void
DpCore::addWatchpoint(mem::Addr addr, std::uint64_t len,
                      std::function<void(mem::Addr, bool)> handler)
{
    watchpoints.push_back({addr, len, std::move(handler)});
}

void
DpCore::readBytes(mem::Addr addr, void *dst, std::uint32_t len)
{
    checkWatchpoints(addr, len, false);
    std::uint64_t words = (len + 7) / 8;
    lsuOps += words;

    if (mem::isDmemAddr(addr)) {
        sim_assert(mem::dmemOwner(addr) == coreId,
                   "core %u direct access to remote DMEM %llx "
                   "(use the ATE)", coreId, (unsigned long long)addr);
        scratch.read(mem::dmemOffset(addr), dst, len);
        cycles(words * lsuCycles);
        return;
    }

    if (memTrace)
        memTrace(coreId, addr, len, false);
    if (words > 1)
        cycles((words - 1) * lsuCycles);
    sim::Tick done = l1dCache.read(addr, dst, len, now());
    aheadTicks = done - eq.now();
    maybeSync();
}

void
DpCore::writeBytes(mem::Addr addr, const void *src, std::uint32_t len)
{
    checkWatchpoints(addr, len, true);
    std::uint64_t words = (len + 7) / 8;
    lsuOps += words;

    if (mem::isDmemAddr(addr)) {
        sim_assert(mem::dmemOwner(addr) == coreId,
                   "core %u direct access to remote DMEM %llx "
                   "(use the ATE)", coreId, (unsigned long long)addr);
        scratch.write(mem::dmemOffset(addr), src, len);
        cycles(words * lsuCycles);
        return;
    }

    if (memTrace)
        memTrace(coreId, addr, len, true);
    if (words > 1)
        cycles((words - 1) * lsuCycles);
    sim::Tick done = l1dCache.write(addr, src, len, now());
    aheadTicks = done - eq.now();
    maybeSync();
}

void
DpCore::cacheFlush(mem::Addr addr, std::uint64_t len)
{
    ++cacheFlushes;
    // The paper's coherence-tooling story (Section 4): programmers
    // conservatively over-flush; a tool identifies and quantifies
    // redundant cache operations. A flush that wrote nothing back
    // was redundant.
    const mem::Cache::Flushed l1 = l1dCache.flushRange(addr, len, now());
    const mem::Cache::Flushed l2c = l2Cache.flushRange(addr, len, l1.done);
    if (l1.lines + l2c.lines == 0)
        ++redundantFlushes;
    aheadTicks = l2c.done - eq.now();
    maybeSync();
}

void
DpCore::cacheInvalidate(mem::Addr addr, std::uint64_t len)
{
    ++cacheInvalidates;
    sim::Tick done = l1dCache.invalidateRange(addr, len, now());
    done = l2Cache.invalidateRange(addr, len, done);
    aheadTicks = done - eq.now();
    maybeSync();
}

} // namespace dpu::core
