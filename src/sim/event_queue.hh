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
 * three no-allocation mechanisms (DESIGN.md §"Event kernel"):
 *
 *  - Intrusive events: Event objects (sim/event.hh) link themselves
 *    into the queue; scheduling a member event costs no allocation.
 *  - A hierarchical timing wheel: four levels of 256 slots indexed
 *    by successive 8-bit digits of the firing tick, giving O(1)
 *    insert/remove for anything within 2^32 ticks (~4.3 ms) of the
 *    clock. Rarer, farther events overflow into a (when, seq)
 *    binary heap and are merged at pop time by sequence number, so
 *    the global FIFO order is exact across both structures.
 *  - A slab pool of callback events: the `scheduleIn(delta, lambda)`
 *    convenience API is carried by pooled CallbackEvent nodes whose
 *    capture storage is inline (sim/inplace_fn.hh) — no malloc on
 *    schedule, no free on fire.
 *
 * A built-in self-profiler counts executed events per subsystem tag
 * (and, when enableWallProfiling() is on, attributes wall time per
 * tag); publishStats() surfaces it through the StatsRegistry as the
 * "eventq" group. The group is created lazily so that golden stat
 * snapshots of the modelled chip are unaffected unless a run opts
 * in.
 */

#ifndef DPU_SIM_EVENT_QUEUE_HH
#define DPU_SIM_EVENT_QUEUE_HH

#include <array>
#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include "sim/event.hh"
#include "sim/logging.hh"
#include "sim/types.hh"

namespace dpu::sim {

class StatGroup;

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
        sim_assert(ev.where_ == Event::Where::None,
                   "event '%s' is already scheduled", ev.name());
        ev.when_ = when;
        ev.seq_ = nextSeq++;
        ev.queue_ = this;
        // An empty wheel is the moment to resync its base with the
        // clock: placement digits stay exact however far the clock
        // has travelled (including past the 2^32-tick horizon of a
        // stale base), and no resident event can be invalidated.
        if (nWheel == 0)
            wheelBase = curTick;
        place(ev);
        ++nScheduled;
        ++prof.schedules;
        if (nScheduled > prof.maxPending)
            prof.maxPending = nScheduled;
    }

    /** Schedule @p ev to fire @p delta ticks from now. */
    void
    scheduleIn(Tick delta, Event &ev)
    {
        schedule(curTick + delta, ev);
    }

    /** Unlink a scheduled event; no-op semantics are NOT provided —
     *  the event must currently be scheduled on this queue. */
    void deschedule(Event &ev);

    /** deschedule-if-needed + schedule. */
    void
    reschedule(Tick when, Event &ev)
    {
        if (ev.scheduled())
            deschedule(ev);
        schedule(when, ev);
    }

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
    bool empty() const { return nScheduled == 0; }

    /** Number of pending events. */
    std::size_t pending() const { return nScheduled; }

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
     * Non-mutating lower bound on the earliest pending event's tick:
     * exact when the earliest resident sits in wheel level 0 or in
     * the overflow heap, else the start of its level's time window
     * (at most one wasted epoch refines it, because running past a
     * window start cascades it to level 0). maxTick when empty. The
     * epoch runner uses this to place the next lookahead window —
     * and to jump idle gaps instead of marching through them.
     */
    Tick nextDueLowerBound() const;

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
        std::uint64_t schedules = 0;
        std::uint64_t maxPending = 0;
        /** Events that went to the overflow heap (beyond the
         *  wheel's 2^32-tick horizon). */
        std::uint64_t heapInserts = 0;
        /** Slot migrations between wheel levels. */
        std::uint64_t cascades = 0;
        std::uint64_t cascadedEvents = 0;
        /** Pool growth: slabs allocated / events per slab. */
        std::uint64_t poolSlabs = 0;
        std::uint64_t poolEvents = 0;
        /** Wall nanoseconds spent inside run() (wall profiling). */
        double runWallNs = 0;

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

    /**
     * Surface the profiler through the StatsRegistry as group
     * "eventq" (created on first call; see file header for the
     * golden-snapshot rationale). Counters: eventq.executed,
     * eventq.executed.<tag>, eventq.schedules, eventq.maxPending,
     * eventq.heapInserts, eventq.cascades, eventq.cascadedEvents,
     * eventq.poolSlabs, eventq.poolEvents. Scalars:
     * eventq.wallNs.<tag>, eventq.runWallNs, eventq.eventsPerSec.
     */
    void publishStats();

  private:
    // ------------------------------------------------------------
    // Timing wheel: 4 levels x 256 slots, one 8-bit digit each.
    // Level k holds events whose tick agrees with wheelBase on all
    // digits above k; slot index is digit k of the tick. Level 0
    // slots therefore hold exactly one tick each, and a slot's
    // doubly-linked list is in seq order (FIFO) by construction.
    // ------------------------------------------------------------
    static constexpr unsigned levelBits = 8;
    static constexpr unsigned slotsPerLevel = 1u << levelBits;
    static constexpr unsigned nLevels = 4;
    static constexpr unsigned bitmapWords = slotsPerLevel / 64;

    struct Slot
    {
        Event *head = nullptr;
        Event *tail = nullptr;
    };

    /** Overflow entry for events beyond the wheel horizon. */
    struct FarEntry
    {
        Tick when;
        std::uint64_t seq;
        Event *ev;

        bool
        operator>(const FarEntry &o) const
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

    /** Link @p ev into the wheel or the overflow heap (assumes
     *  when_/seq_ already assigned). */
    void place(Event &ev);

    /** Append to a slot's FIFO list and set its bitmap bit. */
    void
    pushSlot(unsigned lvl, unsigned slot, Event &ev)
    {
        Slot &s = wheel[lvl][slot];
        ev.prev_ = s.tail;
        ev.next_ = nullptr;
        (s.tail ? s.tail->next_ : s.head) = &ev;
        s.tail = &ev;
        ev.where_ = Event::Where::Wheel;
        ev.level_ = std::uint8_t(lvl);
        bits[lvl][slot >> 6] |= 1ull << (slot & 63);
    }

    /** Unlink from a wheel slot, clearing the bit when it empties. */
    void
    unlinkWheel(Event &ev)
    {
        const unsigned lvl = ev.level_;
        const unsigned slot =
            unsigned(ev.when_ >> (levelBits * lvl)) &
            (slotsPerLevel - 1);
        Slot &s = wheel[lvl][slot];
        (ev.prev_ ? ev.prev_->next_ : s.head) = ev.next_;
        (ev.next_ ? ev.next_->prev_ : s.tail) = ev.prev_;
        ev.prev_ = ev.next_ = nullptr;
        if (!s.head)
            bits[lvl][slot >> 6] &= ~(1ull << (slot & 63));
    }

    /** Lowest set slot index of a level's bitmap, or -1. */
    static int
    findFirst(const std::array<std::uint64_t, bitmapWords> &bm)
    {
        for (unsigned w = 0; w < bitmapWords; ++w)
            if (bm[w])
                return int(w * 64 + unsigned(std::countr_zero(bm[w])));
        return -1;
    }

    /** Head event of the earliest wheel tick, cascading outer
     *  levels toward level 0 as the search advances wheelBase.
     *  Never advances the base into a window starting beyond
     *  @p cap — returns null instead (also when the wheel is
     *  empty), meaning "no wheel event due at or before cap".
     *  The cap is what keeps wheelBase <= curTick: popNext() caps
     *  at both its limit and the overflow heap's front, the two
     *  points where control can resume code that may schedule at
     *  any tick >= curTick. */
    Event *wheelPeek(Tick cap);

    /** Redistribute a level>=1 slot after wheelBase enters its
     *  window. */
    void cascade(unsigned lvl, unsigned slot);

    /** Earliest event overall (wheel vs overflow merged by
     *  (when, seq)), popped and unlinked, or null if none is due at
     *  or before @p limit. Advances curTick on success. */
    Event *popNext(Tick limit);

    /** Run one event's process() with profiling, then recycle
     *  pool-owned carriers. */
    void execute(Event &ev);

    // Overflow min-heap by (when, seq). Hand-rolled sifts so every
    // entry move updates its event's heapIdx_, giving O(log n)
    // deschedule of heap residents (std::*_heap can't report where
    // elements land).
    void farSiftUp(std::size_t i);
    void farSiftDown(std::size_t i);
    /** Remove entry @p i, repairing the heap and indices. */
    void farRemoveAt(std::size_t i);

    // Pool.
    CallbackEvent &acquire();
    void release(CallbackEvent &ev);
    void growPool();

    std::array<std::array<Slot, slotsPerLevel>, nLevels> wheel{};
    std::array<std::array<std::uint64_t, bitmapWords>, nLevels>
        bits{};
    /** All wheel-resident events fire at or after this tick; its
     *  digits define slot membership (see place()). Invariant:
     *  wheelBase <= curTick whenever user code can run, so every
     *  legal schedule (when >= now) lands at when >= wheelBase and
     *  the digit comparison in place() is exact. Maintained by
     *  capping the advance in wheelPeek() and resyncing to curTick
     *  in schedule() when the wheel is empty. */
    Tick wheelBase = 0;
    std::size_t nWheel = 0;

    std::vector<FarEntry> far; ///< min-heap by (when, seq)

    Tick curTick = 0;
    std::uint64_t nextSeq = 0;
    std::size_t nScheduled = 0;

    static constexpr std::size_t slabEvents = 256;
    std::vector<std::unique_ptr<CallbackEvent[]>> slabs;
    CallbackEvent *freeList = nullptr; ///< threaded through next_

    Profile prof;
    bool wallProfiling = false;
    std::unique_ptr<StatGroup> statGroup; ///< lazy, see publishStats
};

} // namespace dpu::sim

#endif // DPU_SIM_EVENT_QUEUE_HH
