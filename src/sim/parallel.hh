/**
 * @file
 * Conservative parallel runner for sharded event kernels.
 *
 * The EpochRunner advances a set of EventQueue partitions (one per
 * execution domain — on a board, one per DPU) in BSP-style epochs,
 * and it owns the one way a partition reaches another: post(), which
 * appends a callback to the source partition's outbox. Partition d
 * belongs to worker d % threads (the caller is worker 0), and every
 * worker runs the same loop:
 *
 *   1. drain:   read every outbox, sources in ascending order, each
 *               in post order, and schedule the mail bound for its
 *               own partitions
 *   2. publish: its partitions' earliest nextDue(), the exact next
 *               event tick
 *   3. barrier, then empty its own partitions' outboxes (when the
 *               run stops here instead, run() empties them all), so
 *               no mail is scheduled twice
 *   4. compute: next = min of the published ticks; every worker
 *               derives the same window [next, min(limit, next +
 *               lookahead)] from the same minima and runWindow()s
 *               its partitions to its end (or all stop together
 *               when next lies past the limit)
 *   5. barrier, then back to 1
 *
 * Conservative correctness: with lookahead <= the minimum
 * cross-partition delivery latency (a board link's store-and-forward
 * hopLatency), any message posted at tick t inside an epoch delivers
 * at >= t + latency >= the epoch's end, i.e. always at or after the
 * receiving partition's clock when the next drain schedules it — no
 * partition ever receives an event in its past, so no rollback is
 * needed. The drain asserts it: a late delivery is fatal.
 * lookahead == 0 degenerates to tick-lockstep (every epoch is a
 * single tick), the serial-order fallback.
 *
 * Determinism: each partition executes exactly the same local event
 * sequence whatever the thread count, because (a) per-queue seq
 * counters make same-tick FIFO order a partition-local property,
 * (b) all cross-partition interaction goes through the outboxes,
 * drained in a fixed order, and (c) per-domain state (fault RNG
 * streams, trace rings — see sim/domain.hh) is keyed by domain, not
 * by thread, and the runner sizes it for its partitions. threads ==
 * 1 runs the identical epoch schedule on the caller's thread, so
 * "parallel equals serial" holds by construction and is enforced
 * bit-exactly by the test wall.
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
#include <thread>
#include <vector>

#include "sim/domain.hh"
#include "sim/event_queue.hh"
#include "sim/types.hh"

namespace dpu::sim {

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

/** Epoch-barrier coordinator and outbox owner over a fixed set of
 *  partitions. */
class EpochRunner
{
  public:
    /**
     * @param queues  One partition per domain; domain d's events run
     *                under DomainScope(d). The fault plane and the
     *                tracer are sized for every domain.
     * @param params  Thread count / lookahead.
     */
    EpochRunner(std::vector<EventQueue *> queues,
                const ParallelParams &params);
    ~EpochRunner();

    EpochRunner(const EpochRunner &) = delete;
    EpochRunner &operator=(const EpochRunner &) = delete;

    unsigned partitions() const { return unsigned(queues.size()); }
    const EventQueue &queue(unsigned d) const { return *queues[d]; }

    /**
     * Run @p fn on partition @p dst at tick @p when, as an
     * EvTag::Link event. Only partition @p src may post: from its
     * own events, or from the host phase between runs. The callback
     * waits in src's outbox until the next drain — the next epoch
     * barrier, or the start of the next run — and @p when must not
     * lie in dst's past by then.
     */
    void post(unsigned src, unsigned dst, Tick when,
              EventQueue::Callback fn);

    /** True when the calling code may act for partition @p d: in
     *  the host phase between runs, or inside d's own events. */
    bool
    onPartition(unsigned d) const
    {
        return !running || currentDomain() == d;
    }

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
    /** Sense-counting barrier on one generation word: a waiter
     *  spins for a short budget, then blocks in std::atomic::wait
     *  until the last arrival's notify, so a worker parked through
     *  a host phase holds no CPU. One thread never waits. */
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
            if (nThreads == 1)
                return;
            const std::uint32_t gen =
                generation.load(std::memory_order_acquire);
            if (count.fetch_add(1, std::memory_order_acq_rel) + 1 ==
                nThreads) {
                count.store(0, std::memory_order_relaxed);
                generation.store(gen + 1,
                                 std::memory_order_release);
                generation.notify_all();
                return;
            }
            for (unsigned spins = 0; spins < 64; ++spins)
                if (generation.load(std::memory_order_acquire) != gen)
                    return;
            // wait() returns only once the word differs from gen.
            generation.wait(gen, std::memory_order_acquire);
        }

      private:
        unsigned nThreads = 1;
        std::atomic<std::uint32_t> count{0};
        std::atomic<std::uint32_t> generation{0};
    };

    /** One parked delivery. */
    struct Mail
    {
        unsigned dst;
        Tick when;
        EventQueue::Callback fn;
    };

    /** What a worker publishes each epoch, on its own cache line:
     *  written by its worker, read by all after a barrier. */
    struct alignas(64) Report
    {
        /** Earliest event on its partitions after the drain. */
        Tick due = maxTick;
        /** Events its partitions ran in the last window. */
        std::uint64_t executed = 0;
    };

    void workerMain(unsigned w);
    /** Worker @p w's share of one run: the epoch loop. */
    void epochs(unsigned w);
    /** Schedule the mail bound for worker @p w's partitions;
     *  @return their earliest event tick. */
    Tick drainOwned(unsigned w);
    /** Advance worker @p w's partitions to @p end; @return the
     *  events they ran. */
    std::uint64_t runOwned(unsigned w, Tick end);

    std::vector<EventQueue *> queues;
    ParallelParams p;
    unsigned nWorkers;
    /** One outbox per partition, in post order. Outbox s is written
     *  and emptied only by s's worker (or the host phase) and read
     *  by every worker's drain; the barriers order the two. */
    std::vector<std::vector<Mail>> outbox;
    std::vector<Report> reports; ///< one per worker

    Barrier barrier;
    std::atomic<bool> stopFlag{false};
    /** The bound of the current run, and whether one is under way;
     *  the caller sets both before it releases the workers. */
    Tick limit = maxTick;
    bool running = false;

    Stats st;
    /** Workers 1 and up; declared last, joined by the destructor. */
    std::vector<std::thread> pool;
};

} // namespace dpu::sim

#endif // DPU_SIM_PARALLEL_HH
