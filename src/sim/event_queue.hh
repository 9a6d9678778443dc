/**
 * @file
 * Global discrete-event queue.
 *
 * Every timed behaviour in the simulated SoC — core wakeups, DMS
 * pipeline stage completions, DDR transactions, ATE message hops —
 * is an event on this queue. Events scheduled for the same tick fire
 * in insertion order, which gives the deterministic FIFO semantics
 * the ATE and DMAX crossbars rely on.
 *
 * The queue is the simulator's hottest path, so it is built around
 * two no-allocation mechanisms (DESIGN.md §"Event kernel"):
 *
 *  - Intrusive events: Event objects (sim/event.hh) sit in the queue
 *    themselves; scheduling a member event costs no allocation. One
 *    binary min-heap of (when, seq, event) entries, kept by
 *    std::push_heap/std::pop_heap, holds every pending event, so the
 *    heap front is the exact next event. An event descheduled while
 *    pending is found by a linear scan and the heap rebuilt: a
 *    bounded wait that ends early moves its waiter's armed resume
 *    event that way, and no queue in the dpubench workloads holds
 *    more than 160 pending events.
 *  - A slab pool of callback events: the `scheduleIn(delta, lambda)`
 *    convenience API is carried by pooled CallbackEvent nodes whose
 *    capture storage is inline (sim/inplace_fn.hh) — no malloc on
 *    schedule, no free on fire.
 *
 * A built-in self-profiler counts executed events per subsystem tag
 * and, when enableWallProfiling() is on, attributes wall time per
 * tag; profile() returns both.
 */

#ifndef DPU_SIM_EVENT_QUEUE_HH
#define DPU_SIM_EVENT_QUEUE_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "sim/event.hh"
#include "sim/inplace_fn.hh"
#include "sim/logging.hh"
#include "sim/types.hh"

namespace dpu::sim {

/** Discrete-event queue with a monotonically advancing clock. */
class EventQueue
{
  public:
    /** Inline-storage callback for the lambda convenience API. */
    using Callback = InplaceFn<80>;

    EventQueue();
    ~EventQueue();

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Tick now() const { return curTick; }

    // ------------------------------------------------------------
    // Intrusive API
    // ------------------------------------------------------------

    /** Schedule @p ev to fire at absolute time @p when (>= now). */
    void
    schedule(Tick when, Event &ev)
    {
        sim_assert(when >= curTick,
                   "scheduling in the past (%llu < %llu)",
                   (unsigned long long)when,
                   (unsigned long long)curTick);
        sim_assert(!ev.scheduled(),
                   "event '%s' is already scheduled", ev.name());
        ev.when_ = when;
        ev.queue_ = this;
        heap.push_back({when, nextSeq++, &ev});
        std::push_heap(heap.begin(), heap.end(), std::greater<>{});
    }

    /** Schedule @p ev to fire @p delta ticks from now. */
    void
    scheduleIn(Tick delta, Event &ev)
    {
        schedule(curTick + delta, ev);
    }

    /** Unlink a scheduled event; no-op semantics are NOT provided —
     *  the event must currently be scheduled on this queue. Linear
     *  in pending(): meant for a wait's deadline that something
     *  else beat (one call per 25-33 executed events on the serving
     *  workloads) and for an event that dies pending, not for
     *  every event. */
    void deschedule(Event &ev);

    // ------------------------------------------------------------
    // Callback convenience API (pooled, allocation-free)
    // ------------------------------------------------------------

    /** Schedule @p cb to run at absolute time @p when (>= now). */
    void
    schedule(Tick when, Callback cb, EvTag tag = EvTag::Generic)
    {
        CallbackEvent &ev = acquire();
        ev.tag_ = tag;
        ev.cb = std::move(cb);
        schedule(when, ev);
    }

    /** Schedule @p cb to run @p delta ticks from now. */
    void
    scheduleIn(Tick delta, Callback cb, EvTag tag = EvTag::Generic)
    {
        schedule(curTick + delta, std::move(cb), tag);
    }

    // ------------------------------------------------------------
    // Execution
    // ------------------------------------------------------------

    /** True when no events remain. */
    bool empty() const { return heap.empty(); }

    /** Number of pending events. */
    std::size_t pending() const { return heap.size(); }

    /**
     * Run events until the queue drains or @p limit is reached.
     * When given a finite limit the clock always lands exactly on
     * it — whether the queue drained or events remain beyond the
     * bound — so quantum-stepped callers observe now() == limit.
     * @return the number of events executed.
     */
    std::uint64_t run(Tick limit = maxTick);

    /**
     * Like run(@p end) but the clock stays at the last executed
     * event instead of parking on the bound. The parallel epoch
     * runner (sim/parallel.hh) advances partitions with this so a
     * drained partition's clock never overshoots the board's true
     * final tick; the runner aligns all clocks explicitly at the
     * end of the whole run.
     */
    std::uint64_t runWindow(Tick end);

    /**
     * Tick of the earliest pending event (the heap front), or
     * maxTick when empty. The epoch runner opens each lookahead
     * window here, so every window starts on a real event and idle
     * gaps are jumped, not marched through.
     */
    Tick
    nextDue() const
    {
        return heap.empty() ? maxTick : heap.front().when;
    }

    /** Execute exactly one event if one exists. @return true if so. */
    bool step();

    // ------------------------------------------------------------
    // Self-profiler
    // ------------------------------------------------------------

    /** Cheap always-on counters plus opt-in wall attribution. */
    struct Profile
    {
        /** Events executed, by subsystem tag. */
        std::array<std::uint64_t, nEvTags> executed{};
        /** Wall nanoseconds inside process(), by tag (only grows
         *  while wall profiling is enabled). */
        std::array<double, nEvTags> wallNs{};
        /** Pool growth: slabs allocated / events per slab. */
        std::uint64_t poolSlabs = 0;
        std::uint64_t poolEvents = 0;

        std::uint64_t
        totalExecuted() const
        {
            std::uint64_t n = 0;
            for (auto v : executed)
                n += v;
            return n;
        }
    };

    const Profile &profile() const { return prof; }

    /** Attribute wall time per event tag (a steady_clock read per
     *  event: measurable overhead, off by default). */
    void enableWallProfiling(bool on) { wallProfiling = on; }

  private:
    /** One heap entry. The firing tick is copied out of the event
     *  so heap moves compare without chasing the pointer. */
    struct Entry
    {
        Tick when;
        std::uint64_t seq; ///< same-tick FIFO order, queue-global
        Event *ev;

        bool
        operator>(const Entry &o) const
        {
            return when != o.when ? when > o.when : seq > o.seq;
        }
    };

    /** Pooled carrier for the lambda API. */
    class CallbackEvent final : public Event
    {
      public:
        Callback cb;
        void
        process() override
        {
            cb();
        }
        const char *name() const override { return "callback"; }
    };

    /** Earliest event, popped and unlinked, or null if none is due
     *  at or before @p limit. Advances curTick on success. */
    Event *popNext(Tick limit);

    /** Run one event's process() with profiling, then recycle
     *  pool-owned carriers. */
    void execute(Event &ev);

    // Pool.
    CallbackEvent &acquire();
    void release(CallbackEvent &ev);
    void growPool();

    /** Every pending event; a min-heap by (when, seq) under
     *  std::greater, so front() fires next. */
    std::vector<Entry> heap;

    Tick curTick = 0;
    std::uint64_t nextSeq = 0;

    static constexpr std::size_t slabEvents = 256;
    std::vector<std::unique_ptr<CallbackEvent[]>> slabs;
    CallbackEvent *freeList = nullptr; ///< threaded through next_

    Profile prof;
    bool wallProfiling = false;
};

} // namespace dpu::sim

#endif // DPU_SIM_EVENT_QUEUE_HH
