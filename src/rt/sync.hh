/**
 * @file
 * Synchronization primitives over the ATE (Section 2.3: "Hardware
 * RPCs enable efficient synchronization primitives such as mutexes
 * and barriers"; Section 4: the runtime "abstract[s] inter-dpCore
 * communication and synchronization routines over the ATE to allow
 * porting of common parallel programming paradigms such as threads,
 * task queues, and independent loops").
 *
 * Every primitive pins its state word(s) to an owner core's DMEM;
 * all cores manipulate the word with ATE hardware atomics, which the
 * owner's pipeline serializes — coherence without coherence.
 */

#ifndef DPU_RT_SYNC_HH
#define DPU_RT_SYNC_HH

#include <cstdint>
#include <optional>

#include "ate/ate.hh"
#include "core/dp_core.hh"

namespace dpu::rt {

/** Retry policy for ReliableAte (see below). */
struct AteRetryPolicy
{
    /** Initial response timeout; doubles per retry. */
    sim::Tick timeout = 2'000'000; // 2 us
    /** Reissues after the first attempt. */
    unsigned maxRetries = 6;
    /** Initial inter-attempt backoff in core cycles; doubles per
     *  retry, capped at 4096. */
    sim::Cycles backoff = 64;
};

/**
 * ATE hardware RPCs hardened against a lossy crossbar: each op is a
 * bounded wait (Ate::waitResponseFor) wrapped in a reissue loop with
 * exponential backoff and a doubling timeout. Retries are safe for
 * all ops including the atomics because the modelled fault drops the
 * *request* before the remote op executes — a request that reached
 * the remote core always produces a response (possibly late; late
 * responses are discarded as stale, never delivered to a retry).
 *
 * Ops return std::nullopt (store: false) once the retry budget is
 * exhausted; callers degrade gracefully instead of hanging, which is
 * the contract the chaos harness asserts.
 */
class ReliableAte
{
  public:
    explicit ReliableAte(ate::Ate &ate, AteRetryPolicy pol = {})
        : ateRef(ate), policy(pol)
    {
    }

    std::optional<std::uint64_t>
    load(core::DpCore &c, unsigned target, mem::Addr addr,
         unsigned bytes = 8)
    {
        return op(c, target, ate::AteOp::Load, addr, 0, 0, bytes);
    }

    bool
    store(core::DpCore &c, unsigned target, mem::Addr addr,
          std::uint64_t value, unsigned bytes = 8)
    {
        return op(c, target, ate::AteOp::Store, addr, value, 0, bytes)
            .has_value();
    }

    std::optional<std::uint64_t>
    fetchAdd(core::DpCore &c, unsigned target, mem::Addr addr,
             std::int64_t delta, unsigned bytes = 8)
    {
        return op(c, target, ate::AteOp::FetchAdd, addr,
                  std::uint64_t(delta), 0, bytes);
    }

    std::optional<std::uint64_t>
    compareSwap(core::DpCore &c, unsigned target, mem::Addr addr,
                std::uint64_t expect, std::uint64_t desired,
                unsigned bytes = 8)
    {
        return op(c, target, ate::AteOp::CompareSwap, addr, expect,
                  desired, bytes);
    }

    /** Reissues performed across all ops so far. */
    std::uint64_t retries() const { return nRetries; }

    /** Ops that exhausted the retry budget. */
    std::uint64_t failures() const { return nFailures; }

  private:
    std::optional<std::uint64_t>
    op(core::DpCore &c, unsigned target, ate::AteOp o, mem::Addr addr,
       std::uint64_t a, std::uint64_t b, unsigned bytes)
    {
        sim::Tick timeout = policy.timeout;
        sim::Cycles backoff = policy.backoff;
        for (unsigned attempt = 0; attempt <= policy.maxRetries;
             ++attempt) {
            ateRef.issue(c, target, o, addr, a, b, bytes);
            std::uint64_t v = 0;
            if (ateRef.waitResponseFor(c, timeout, v))
                return v;
            ++nRetries;
            c.sleepCycles(backoff);
            if (backoff < 4096)
                backoff *= 2;
            timeout *= 2;
        }
        ++nFailures;
        return std::nullopt;
    }

    ate::Ate &ateRef;
    AteRetryPolicy policy;
    std::uint64_t nRetries = 0;
    std::uint64_t nFailures = 0;
};

/** Spin mutex on a word in the owner core's DMEM. */
class AteMutex
{
  public:
    /**
     * @param owner      Core whose DMEM holds the lock word.
     * @param dmem_off   Offset of an 8 B word (must be zeroed).
     */
    AteMutex(unsigned owner, std::uint32_t dmem_off)
        : addr(mem::dmemAddr(owner, dmem_off)), ownerCore(owner)
    {
    }

    void
    lock(core::DpCore &c, ate::Ate &ate)
    {
        // CAS 0 -> id+1; exponential-ish backoff between attempts.
        sim::Cycles backoff = 16;
        while (ate.compareSwap(c, ownerCore, addr, 0, c.id() + 1,
                               8) != 0) {
            c.sleepCycles(backoff);
            if (backoff < 1024)
                backoff *= 2;
        }
    }

    void
    unlock(core::DpCore &c, ate::Ate &ate)
    {
        ate.remoteStore(c, ownerCore, addr, 0, 8);
    }

  private:
    mem::Addr addr;
    unsigned ownerCore;
};

/**
 * Sense-reversing barrier: an arrival counter and a generation word
 * at the owner core.
 */
class AteBarrier
{
  public:
    /**
     * @param owner    Core whose DMEM holds the two 8 B words.
     * @param dmem_off Offset of 16 zeroed bytes.
     * @param n        Number of participating cores.
     */
    AteBarrier(unsigned owner, std::uint32_t dmem_off, unsigned n)
        : countAddr(mem::dmemAddr(owner, dmem_off)),
          genAddr(mem::dmemAddr(owner, dmem_off + 8)),
          ownerCore(owner), nCores(n)
    {
    }

    void
    arrive(core::DpCore &c, ate::Ate &ate)
    {
        std::uint64_t gen = ate.remoteLoad(c, ownerCore, genAddr, 8);
        std::uint64_t n = ate.fetchAdd(c, ownerCore, countAddr, 1, 8);
        if (n + 1 == nCores) {
            // Last arrival: reset the counter, bump the generation.
            ate.remoteStore(c, ownerCore, countAddr, 0, 8);
            ate.fetchAdd(c, ownerCore, genAddr, 1, 8);
            return;
        }
        // Spin (with backoff) until the generation advances.
        sim::Cycles backoff = 32;
        while (ate.remoteLoad(c, ownerCore, genAddr, 8) == gen) {
            c.sleepCycles(backoff);
            if (backoff < 2048)
                backoff *= 2;
        }
    }

  private:
    mem::Addr countAddr;
    mem::Addr genAddr;
    unsigned ownerCore;
    unsigned nCores;
};

/**
 * Work-stealing chunk counter (Section 5.4: "we partition the input
 * set into multiple chunks and implement work stealing ... across
 * cores using the ATE hardware atomics").
 */
class AteCounter
{
  public:
    AteCounter(unsigned owner, std::uint32_t dmem_off)
        : addr(mem::dmemAddr(owner, dmem_off)), ownerCore(owner)
    {
    }

    /** Claim and return the next index. */
    std::uint64_t
    next(core::DpCore &c, ate::Ate &ate)
    {
        return ate.fetchAdd(c, ownerCore, addr, 1, 8);
    }

  private:
    mem::Addr addr;
    unsigned ownerCore;
};

} // namespace dpu::rt

#endif // DPU_RT_SYNC_HH
