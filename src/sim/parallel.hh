/**
 * @file
 * Conservative parallel runner for sharded event kernels.
 *
 * The EpochRunner advances a set of EventQueue partitions (one per
 * execution domain — on a board, one per DPU) in BSP-style epochs:
 *
 *   1. window:  next = min over partitions of nextDue(), the exact
 *               next event tick;
 *               epochEnd = min(limit, next + lookahead)
 *   2. compute: every partition free-runs its events with
 *               runWindow(epochEnd) — in parallel, one worker thread
 *               per partition group (static ownership d % threads)
 *   3. barrier
 *   4. drain:   each destination partition schedules its inbound
 *               cross-partition messages (posted to mailboxes during
 *               compute) in deterministic (src, tick, seq) order
 *   5. barrier, then back to 1
 *
 * Conservative correctness: with lookahead <= the minimum
 * cross-partition delivery latency (a board link's store-and-forward
 * hopLatency), any message sent at tick t inside an epoch delivers
 * at >= t + latency >= epochEnd, i.e. always at or after the
 * receiving partition's clock when it is scheduled at the barrier —
 * no partition ever receives an event in its past, so no rollback is
 * needed. lookahead == 0 degenerates to tick-lockstep (every epoch
 * is a single tick), the serial-order fallback.
 *
 * Determinism: each partition executes exactly the same local event
 * sequence whatever the thread count, because (a) per-queue seq
 * counters make same-tick FIFO order a partition-local property,
 * (b) all cross-partition interaction is mailbox-mediated and
 * drained in a fixed order, and (c) per-domain state (fault RNG
 * streams, trace rings — see sim/domain.hh) is keyed by domain, not
 * by thread. threads == 1 runs the identical epoch schedule on the
 * caller's thread, so "parallel equals serial" holds by
 * construction and is enforced bit-exactly by the test wall.
 *
 * Clock protocol: partitions advance with runWindow(), which leaves
 * each clock on its last executed event; when the run ends the
 * runner parks every clock on the common final tick (the global max
 * event tick, or the bound of a limited run), so host-phase code
 * between runs sees one aligned board clock — exactly the clock a
 * single shared queue would have shown.
 */

#ifndef DPU_SIM_PARALLEL_HH
#define DPU_SIM_PARALLEL_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/types.hh"

namespace dpu::sim {

/** The partition the calling thread is currently advancing, or
 *  nullptr outside an EpochRunner compute phase. Lets a facade over
 *  N partitions (board::Board::now()) report the running clock. */
const EventQueue *activeEventQueue();

/** Knobs for EpochRunner. */
struct ParallelParams
{
    /** Worker threads, caller included. 1 = serial epoch schedule
     *  on the caller's thread (clamped to the partition count). */
    unsigned threads = 1;
    /** Free-run window; must not exceed the minimum cross-partition
     *  delivery latency. 0 = tick-lockstep. */
    Tick lookahead = 0;
};

/** Epoch-barrier coordinator over a fixed set of partitions. */
class EpochRunner
{
  public:
    /**
     * @param queues  One partition per domain; domain d's events run
     *                under DomainScope(d).
     * @param params  Thread count / lookahead.
     * @param drain   drain(dst): schedule domain dst's pending
     *                inbound messages into queues[dst]; called under
     *                DomainScope(dst), once per partition at the
     *                start of the run and at every epoch barrier.
     *                Must only touch dst-owned state.
     */
    EpochRunner(std::vector<EventQueue *> queues,
                const ParallelParams &params,
                std::function<void(unsigned dst)> drain);
    ~EpochRunner();

    EpochRunner(const EpochRunner &) = delete;
    EpochRunner &operator=(const EpochRunner &) = delete;

    /**
     * Run every partition until all drain or every clock reaches
     * @p limit; all clocks land aligned on the returned final tick
     * (the global last event tick, or @p limit when bounded).
     */
    Tick run(Tick limit = maxTick);

    /** Runner telemetry, for the barrier/lookahead unit tests. */
    struct Stats
    {
        std::uint64_t epochs = 0;
        /** Epochs whose window start jumped past the previous
         *  window's end — idle gaps skipped, not marched through. */
        std::uint64_t idleSkips = 0;
        /** Compute phases that executed zero events. Always 0:
         *  every window opens on a partition's next event. */
        std::uint64_t emptyEpochs = 0;
    };

    const Stats &stats() const { return st; }
    unsigned workers() const { return nWorkers; }

  private:
    /** Sense-counting spin barrier (atomics only: cheap at this
     *  scale and race-free under TSan). */
    class Barrier
    {
      public:
        void
        init(unsigned n)
        {
            nThreads = n;
        }

        void
        arriveAndWait()
        {
            const std::uint32_t gen =
                generation.load(std::memory_order_acquire);
            if (count.fetch_add(1, std::memory_order_acq_rel) + 1 ==
                nThreads) {
                count.store(0, std::memory_order_relaxed);
                generation.store(gen + 1,
                                 std::memory_order_release);
                return;
            }
            unsigned spins = 0;
            while (generation.load(std::memory_order_acquire) ==
                   gen) {
                if (++spins > 64)
                    std::this_thread::yield();
            }
        }

      private:
        unsigned nThreads = 1;
        std::atomic<std::uint32_t> count{0};
        std::atomic<std::uint32_t> generation{0};
    };

    void workerMain(unsigned w);
    /** Advance every partition owned by worker @p w to epochEnd. */
    void runOwned(unsigned w);
    /** Drain inbound mailboxes of every partition owned by @p w. */
    void drainOwned(unsigned w);
    /** One epoch: compute, barrier, drain, barrier. */
    void runEpoch();

    std::vector<EventQueue *> queues;
    ParallelParams p;
    std::function<void(unsigned dst)> drainFn;
    unsigned nWorkers;

    std::vector<std::thread> pool;
    Barrier barrier;
    std::atomic<bool> stopFlag{false};
    /** Published by the coordinator before releasing an epoch. */
    Tick epochEnd = 0;
    std::atomic<std::uint64_t> epochExecuted{0};

    Stats st;
};

} // namespace dpu::sim

#endif // DPU_SIM_PARALLEL_HH
