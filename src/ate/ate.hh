/**
 * @file
 * The Atomic Transaction Engine (Section 2.3).
 *
 * A two-level crossbar (8 dpCores per macro crossbar, 4 macros on
 * the top-level crossbar) carrying messages with guaranteed
 * point-to-point FIFO ordering. Messages are remote procedure calls
 * executed by hardware at the receiving dpCore:
 *
 *  - Hardware RPCs: load, store, atomic fetch-and-add and
 *    compare-and-swap on any DDR or DMEM address *at the remote
 *    core*. The op is injected into the remote pipeline (it appears
 *    as a stall there, no interrupt, no I-cache perturbation) and —
 *    crucially — DDR addresses go through the REMOTE core's cache,
 *    which is why pinning a shared structure to one owner core
 *    makes ATE access to it coherent without hardware coherence.
 *  - Software RPCs: interrupt the remote core and run a
 *    pre-installed handler to completion.
 *
 * A core may have one ATE request outstanding; it may overlap
 * independent instructions before blocking on the response
 * (Section 2.3, Figure 2).
 */

#ifndef DPU_ATE_ATE_HH
#define DPU_ATE_ATE_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "core/dp_core.hh"
#include "mem/addr.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"

namespace dpu::ate {

// Crossbar and op latencies, in cycles at the 800 MHz core clock
// (Figure 2). They are properties of the fabricated crossbar.

/** dpCore <-> macro crossbar hop. */
constexpr sim::Cycles localHopCycles = 6;
/** Macro crossbar <-> top-level crossbar extra hops (one way). */
constexpr sim::Cycles macroHopCycles = 10;
/** Remote pipeline injection cost per op type. */
constexpr sim::Cycles opLoadCycles = 4;
constexpr sim::Cycles opStoreCycles = 2;
constexpr sim::Cycles opAmoCycles = 8;
/** Queueing + dispatch before the remote interrupt for sw RPCs. */
constexpr sim::Cycles swDeliverCycles = 24;
/** Minimum spacing between deliveries on one (src,dst) pair. */
constexpr sim::Cycles linkSpacingCycles = 1;

/** Hardware RPC opcodes. */
enum class AteOp : std::uint8_t
{
    Load,
    Store,
    FetchAdd,
    CompareSwap,
    SwRpc,
};

/** The ATE block of one DPU. */
class Ate
{
  public:
    /**
     * @param cores The complex's dpCores in id order (the crossbar
     *              only spans one 32-core complex). Core ids in the
     *              public API are global; they are mapped onto this
     *              vector internally.
     */
    Ate(sim::EventQueue &eq, std::vector<core::DpCore *> cores);

    // ------------------------------------------------------------
    // Blocking hardware RPCs (issue + wait in one call)
    // ------------------------------------------------------------

    /** Remote load of 1/2/4/8 bytes at @p addr via core @p target. */
    std::uint64_t remoteLoad(core::DpCore &c, unsigned target,
                             mem::Addr addr, unsigned bytes);

    /** Remote store; see remoteLoad. */
    void remoteStore(core::DpCore &c, unsigned target, mem::Addr addr,
                     std::uint64_t value, unsigned bytes);

    /** Atomic fetch-and-add at the remote core; returns old value. */
    std::uint64_t fetchAdd(core::DpCore &c, unsigned target,
                           mem::Addr addr, std::int64_t delta,
                           unsigned bytes);

    /**
     * Atomic compare-and-swap at the remote core; returns the value
     * observed (== @p expect on success).
     */
    std::uint64_t compareSwap(core::DpCore &c, unsigned target,
                              mem::Addr addr, std::uint64_t expect,
                              std::uint64_t desired, unsigned bytes);

    // ------------------------------------------------------------
    // Split-phase interface ("process regular instructions before
    // eventually blocking for response", Section 2.3)
    // ------------------------------------------------------------

    /** Issue a hardware RPC without blocking (one outstanding). */
    void issue(core::DpCore &c, unsigned target, AteOp op,
               mem::Addr addr, std::uint64_t a = 0,
               std::uint64_t b = 0, unsigned bytes = 8);

    /** Block until the outstanding request's response arrives. */
    std::uint64_t waitResponse(core::DpCore &c);

    /**
     * Bounded waitResponse: give up after @p timeout ticks. On
     * timeout the outstanding request is abandoned (its generation
     * is bumped, so a late response is discarded as stale) and the
     * core may issue again — the primitive under rt::ReliableAte's
     * retry loop. @return true with @p value filled on response.
     */
    bool waitResponseFor(core::DpCore &c, sim::Tick timeout,
                         std::uint64_t &value);

    /**
     * Abandon the outstanding request without waiting; a response
     * already in flight is discarded on arrival (counted as
     * "staleResponses").
     */
    void abandonRequest(core::DpCore &c);

    // ------------------------------------------------------------
    // Software RPCs
    // ------------------------------------------------------------

    /**
     * Run @p fn on @p target's core (interrupt + handler). Blocks
     * until the handler has completed and the ack returned when
     * @p wait is true.
     */
    void swRpc(core::DpCore &c, unsigned target,
               std::function<void(core::DpCore &)> fn,
               bool wait = true);

    sim::StatGroup &statGroup() { return stats; }

  private:
    struct Outstanding
    {
        bool busy = false;
        bool ready = false;
        std::uint64_t value = 0;
        /** Bumped per issue and per abandon; an in-flight response
         *  whose captured generation mismatches is stale. */
        std::uint64_t gen = 0;
    };

    /** One-way message latency between two cores, in ticks. */
    sim::Tick oneWay(unsigned src, unsigned dst) const;

    /** FIFO-ordered delivery tick for the (src,dst) link. */
    sim::Tick deliveryTick(unsigned src, unsigned dst);

    /** Execute a hardware op at the remote core at @p when. */
    std::uint64_t doRemoteOp(unsigned target, AteOp op,
                             mem::Addr addr, std::uint64_t a,
                             std::uint64_t b, unsigned bytes,
                             sim::Tick when, sim::Tick &op_done);

    /** Global core id -> index into the complex's core vector. */
    unsigned local(unsigned global_id) const;

    sim::EventQueue &eq;
    std::vector<core::DpCore *> cores;
    unsigned baseId;
    sim::StatGroup stats;
    /** Per-RPC and recovery counters (see sim/stats.hh). */
    sim::Counter loads{stats, "loads"};
    sim::Counter stores{stats, "stores"};
    sim::Counter fetchAdds{stats, "fetchAdds"};
    sim::Counter compareSwaps{stats, "compareSwaps"};
    sim::Counter swRpcs{stats, "swRpcs"};
    sim::Counter droppedRequests{stats, "droppedRequests"};
    sim::Counter delayedRequests{stats, "delayedRequests"};
    sim::Counter staleResponses{stats, "staleResponses"};
    sim::Counter abandonedRequests{stats, "abandonedRequests"};

    std::vector<Outstanding> pending;
    /** lastDeliver[src * nCores + dst]. */
    std::vector<sim::Tick> lastDeliver;
};

} // namespace dpu::ate

#endif // DPU_ATE_ATE_HH
