/**
 * @file
 * Event-kernel regression tests: the bounded-run clock fix, the
 * schedule-from-callback-at-current-tick fix, pool growth/reuse,
 * events past the 2^32-tick mark, the intrusive API, large-scale
 * same-tick FIFO determinism, and a seeded reference-model property
 * test of the whole API.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "sim/event.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"

using dpu::sim::Event;
using dpu::sim::EventQueue;
using dpu::sim::EvTag;
using dpu::sim::Tick;

namespace {

/** Minimal intrusive event that appends a label when it fires. */
class MarkEvent final : public Event
{
  public:
    MarkEvent(std::vector<std::string> &log_, std::string label_,
              EvTag tag = EvTag::Generic)
        : Event(tag), log(log_), label(std::move(label_))
    {
    }
    void process() override { log.push_back(label); }
    const char *name() const override { return label.c_str(); }

  private:
    std::vector<std::string> &log;
    std::string label;
};

} // namespace

// ----------------------------------------------------------------
// Satellite 1: run(limit) must land the clock exactly on the limit
// whenever execution stops at the bound — including when events
// remain beyond it. (The old queue left now() at the last executed
// event, so quantum-stepped callers saw time stand still.)
// ----------------------------------------------------------------

TEST(EventKernel, BoundedRunAdvancesClockWithEventsPendingBeyond)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(10, [&] { ++fired; });
    eq.schedule(5000, [&] { ++fired; });

    eq.run(1000);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.now(), 1000u); // not stuck at tick 10
    EXPECT_EQ(eq.pending(), 1u);

    // A window containing no events still advances the clock.
    eq.run(2000);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.now(), 2000u);

    // The remaining event is intact and fires at its original time.
    eq.run();
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(eq.now(), 5000u);
}

TEST(EventKernel, BoundedRunAdvancesClockOnEmptyQueue)
{
    EventQueue eq;
    EXPECT_EQ(eq.run(777), 0u);
    EXPECT_EQ(eq.now(), 777u);
}

// ----------------------------------------------------------------
// Satellite 2: scheduling at the *current* tick from inside a
// running callback must enqueue behind the pending same-tick events
// and fire this tick. (The old priority_queue implementation moved
// out of top() mid-iteration; a reentrant push could reallocate the
// heap under it.)
// ----------------------------------------------------------------

TEST(EventKernel, ScheduleAtCurrentTickFromCallbackRunsThisTick)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(100, [&] {
        order.push_back(0);
        // Many reentrant same-tick schedules: enough to force the
        // old heap to grow mid-callback.
        for (int i = 1; i <= 64; ++i)
            eq.schedule(eq.now(), [&order, i] { order.push_back(i); });
    });
    bool later = false;
    eq.schedule(101, [&] {
        later = true;
        // Everything scheduled for tick 100 ran before tick 101.
        EXPECT_EQ(order.size(), 65u);
    });

    eq.run();
    ASSERT_EQ(order.size(), 65u);
    for (int i = 0; i < 65; ++i)
        EXPECT_EQ(order[i], i) << "position " << i;
    EXPECT_TRUE(later);
    EXPECT_EQ(eq.now(), 101u);
}

TEST(EventKernel, ReentrantSameTickScheduleInterleavesWithPending)
{
    EventQueue eq;
    std::vector<std::string> order;
    // a and b are both pending at tick 50 before either runs; a
    // schedules c at the same tick. FIFO demands a, b, c.
    eq.schedule(50, [&] {
        order.push_back("a");
        eq.schedule(50, [&] { order.push_back("c"); });
    });
    eq.schedule(50, [&] { order.push_back("b"); });
    eq.run();
    EXPECT_EQ(order,
              (std::vector<std::string>{"a", "b", "c"}));
}

// ----------------------------------------------------------------
// Satellite 3a: callback pool growth under load, reuse after.
// ----------------------------------------------------------------

TEST(EventKernel, PoolGrowsUnderLoadAndReusesAfterDraining)
{
    EventQueue eq;
    // More simultaneously-pending callbacks than one 256-event slab.
    const unsigned burst = 700;
    unsigned fired = 0;
    for (unsigned i = 0; i < burst; ++i)
        eq.schedule(Tick(10 + i), [&] { ++fired; });
    EXPECT_GE(eq.profile().poolSlabs, 3u);
    EXPECT_GE(eq.profile().poolEvents, burst);

    eq.run();
    EXPECT_EQ(fired, burst);

    // Sequential traffic recycles the free list: no further growth
    // no matter how many events flow through.
    const std::uint64_t slabs = eq.profile().poolSlabs;
    for (unsigned i = 0; i < 10000; ++i) {
        eq.scheduleIn(1, [&] { ++fired; });
        eq.run();
    }
    EXPECT_EQ(fired, burst + 10000);
    EXPECT_EQ(eq.profile().poolSlabs, slabs);
}

// ----------------------------------------------------------------
// Events more than 2^32 ticks out (past any 32-bit tick arithmetic)
// fire in order, and FIFO order stays exact when a tick's events
// were scheduled from far away and from close by.
// ----------------------------------------------------------------

TEST(EventKernel, FarEventsPastThe32BitMarkFireInOrder)
{
    EventQueue eq;
    const Tick h = Tick(1) << 32;
    std::vector<std::string> order;

    eq.schedule(h + 5, [&] { order.push_back("far"); });
    eq.schedule(3, [&] { order.push_back("near"); });
    eq.schedule(h * 3, [&] { order.push_back("farther"); });

    eq.run();
    EXPECT_EQ(order, (std::vector<std::string>{"near", "far",
                                               "farther"}));
    EXPECT_EQ(eq.now(), h * 3);
}

TEST(EventKernel, SameTickFifoHoldsForFarAndNearSchedules)
{
    EventQueue eq;
    const Tick when = (Tick(1) << 32) + 123456;
    std::vector<std::string> order;

    // Scheduled from tick 0, more than 2^32 ticks ahead: the
    // earliest sequence number at `when`.
    eq.schedule(when, [&] { order.push_back("far-first"); });
    // Scheduled from 8 ticks before: a later sequence number at the
    // same tick.
    eq.schedule(when - 8, [&] {
        eq.schedule(when, [&] { order.push_back("near-second"); });
    });

    eq.run();
    EXPECT_EQ(order, (std::vector<std::string>{"far-first",
                                               "near-second"}));
}

TEST(EventKernel, WidelySpacedTicksFireInOrderWithSameTickFifo)
{
    EventQueue eq;
    // Ticks that differ from tick 0 in successive 8-bit digits, plus
    // two same-tick events at the deepest one to check FIFO holds
    // there too.
    std::vector<Tick> fireTimes;
    const Tick deep = Tick(7) << 24;
    eq.schedule(Tick(5), [&] { fireTimes.push_back(eq.now()); });
    eq.schedule(Tick(3) << 8, [&] { fireTimes.push_back(eq.now()); });
    eq.schedule(Tick(9) << 16, [&] { fireTimes.push_back(eq.now()); });
    std::vector<std::string> deepOrder;
    eq.schedule(deep, [&] {
        fireTimes.push_back(eq.now());
        deepOrder.push_back("first");
    });
    eq.schedule(deep, [&] { deepOrder.push_back("second"); });

    eq.run();
    EXPECT_TRUE(std::is_sorted(fireTimes.begin(), fireTimes.end()));
    EXPECT_EQ(fireTimes.back(), deep);
    EXPECT_EQ(deepOrder, (std::vector<std::string>{"first",
                                                   "second"}));
}

// ----------------------------------------------------------------
// Intrusive API: deschedule, schedule again, destructor unlink.
// ----------------------------------------------------------------

TEST(EventKernel, IntrusiveDescheduleAndReschedule)
{
    EventQueue eq;
    std::vector<std::string> log;
    MarkEvent ev(log, "ev");

    eq.schedule(100, ev);
    EXPECT_TRUE(ev.scheduled());
    EXPECT_EQ(ev.when(), 100u);
    eq.deschedule(ev);
    EXPECT_FALSE(ev.scheduled());
    eq.run();
    EXPECT_TRUE(log.empty());
    EXPECT_EQ(eq.pending(), 0u);

    eq.schedule(200, ev);
    eq.deschedule(ev);
    eq.schedule(300, ev); // moves, does not duplicate
    EXPECT_EQ(eq.pending(), 1u);
    eq.run();
    EXPECT_EQ(log, (std::vector<std::string>{"ev"}));
    EXPECT_EQ(eq.now(), 300u);
    EXPECT_FALSE(ev.scheduled());
}

TEST(EventKernel, DestroyingScheduledEventUnlinksIt)
{
    EventQueue eq;
    std::vector<std::string> log;
    {
        MarkEvent doomed(log, "doomed");
        eq.schedule(50, doomed);
        EXPECT_EQ(eq.pending(), 1u);
    } // destructor must deschedule
    EXPECT_EQ(eq.pending(), 0u);
    eq.run();
    EXPECT_TRUE(log.empty());

    // Events past 2^32 ticks unlink from the destructor too.
    {
        MarkEvent farDoomed(log, "far");
        eq.schedule((Tick(1) << 32) + 99, farDoomed);
    }
    EXPECT_EQ(eq.pending(), 0u);
    eq.run();
    EXPECT_TRUE(log.empty());
}

// ----------------------------------------------------------------
// Satellite 3d: large-scale same-tick FIFO determinism. 10k
// randomly interleaved schedules across a handful of ticks, mixing
// pooled callbacks and intrusive events; execution order must equal
// insertion order per tick, twice over.
// ----------------------------------------------------------------

namespace {

std::vector<std::pair<Tick, unsigned>>
runInterleavedWorkload(std::uint64_t seed)
{
    dpu::sim::Rng rng(seed);
    EventQueue eq;

    static const Tick ticks[4] = {1000, 2000, 3000, 4000};

    /** Intrusive participant: records (tick, insertion index). */
    class RecordEvent final : public Event
    {
      public:
        std::vector<std::pair<Tick, unsigned>> *out = nullptr;
        Tick tick = 0;
        unsigned idx = 0;
        void process() override { out->push_back({tick, idx}); }
    };

    std::vector<std::pair<Tick, unsigned>> fired;
    std::vector<std::unique_ptr<RecordEvent>> intrusives;
    unsigned perTick[4] = {0, 0, 0, 0};

    for (unsigned i = 0; i < 10000; ++i) {
        const unsigned t = unsigned(rng.below(4));
        const Tick when = ticks[t];
        const unsigned idx = perTick[t]++;
        if (rng.below(3) == 0) {
            auto ev = std::make_unique<RecordEvent>();
            ev->out = &fired;
            ev->tick = when;
            ev->idx = idx;
            eq.schedule(when, *ev);
            intrusives.push_back(std::move(ev));
        } else {
            eq.schedule(when, [&fired, when, idx] {
                fired.push_back({when, idx});
            });
        }
    }
    eq.run();
    return fired;
}

} // namespace

TEST(EventKernel, TenThousandInterleavedSameTickSchedulesAreFifo)
{
    const auto fired = runInterleavedWorkload(42);
    ASSERT_EQ(fired.size(), 10000u);

    // Within each tick, insertion indices come out 0, 1, 2, ...;
    // across ticks, times are non-decreasing.
    Tick lastTick = 0;
    unsigned expectedIdx = 0;
    for (const auto &[when, idx] : fired) {
        ASSERT_GE(when, lastTick);
        if (when != lastTick) {
            lastTick = when;
            expectedIdx = 0;
        }
        ASSERT_EQ(idx, expectedIdx) << "at tick " << when;
        ++expectedIdx;
    }

    // Bit-identical on a second run: same seed, same order.
    EXPECT_EQ(fired, runInterleavedWorkload(42));
}

// ----------------------------------------------------------------
// Schedules issued where control returns to user code (after a
// bounded run(), or from an event's callback) may land below events
// already pending, and must fire before them with now() monotonic.
// ----------------------------------------------------------------

TEST(EventKernel, ScheduleEarlierThanPendingAfterBoundedRunFiresFirst)
{
    EventQueue eq;
    std::vector<Tick> order;
    eq.schedule(5000, [&] { order.push_back(eq.now()); });

    // The bounded run pops nothing and parks the clock at 1000.
    eq.run(1000);
    EXPECT_EQ(eq.now(), 1000u);

    // Scheduling below the pending event (legal: 1500 >= now) must
    // fire first, and now() must stay monotonic across both.
    eq.schedule(1500, [&] { order.push_back(eq.now()); });
    eq.run();
    EXPECT_EQ(order, (std::vector<Tick>{1500, 5000}));
    EXPECT_EQ(eq.now(), 5000u);
}

TEST(EventKernel, CallbackScheduleBelowPendingFarEventFiresFirst)
{
    EventQueue eq;
    const Tick h = Tick(1) << 32;
    std::vector<Tick> order;

    // Scheduled from tick 0, more than 2^32 ticks ahead...
    eq.schedule(3 * h + 5, [&] {
        order.push_back(eq.now());
        // ...and its callback schedules 10 ticks on, below the event
        // at 3h+70000 that is still pending.
        eq.scheduleIn(10, [&] { order.push_back(eq.now()); });
    });

    eq.run(3 * h); // park the clock just before the first event
    // ...then an event after it, scheduled from the parked clock.
    eq.schedule(3 * h + 70000, [&] { order.push_back(eq.now()); });

    eq.run();
    EXPECT_EQ(order,
              (std::vector<Tick>{3 * h + 5, 3 * h + 15,
                                 3 * h + 70000}));
    EXPECT_EQ(eq.now(), 3 * h + 70000);
}

TEST(EventKernel, QuantumSteppedRunsWithLateSchedulesStayOrdered)
{
    // Model-based: interleave bounded runs (the Soc::runFor shape)
    // with schedules issued between quanta — same-quantum deltas,
    // deltas up to 2^30 and past 2^32 — and require the exact global
    // (when, insertion) order.
    dpu::sim::Rng rng(1234);
    EventQueue eq;
    std::vector<std::pair<Tick, unsigned>> expected;
    std::vector<std::pair<Tick, unsigned>> fired;
    unsigned id = 0;
    Tick quantumEnd = 0;

    for (int round = 0; round < 200; ++round) {
        const unsigned n = 1 + unsigned(rng.below(8));
        for (unsigned k = 0; k < n; ++k) {
            Tick delta = 0;
            switch (rng.below(4)) {
              case 0: delta = rng.below(64); break;
              case 1: delta = rng.below(100000); break;
              case 2: delta = (Tick(1) << 30) + rng.below(4096); break;
              default:
                delta = (Tick(1) << 32) + rng.below(1u << 20);
            }
            const Tick when = eq.now() + delta;
            expected.push_back({when, id});
            eq.schedule(when, [&fired, when, evId = id] {
                fired.push_back({when, evId});
            });
            ++id;
        }
        quantumEnd += 50000 + rng.below(100000);
        eq.run(quantumEnd);
        ASSERT_EQ(eq.now(), quantumEnd) << "round " << round;
    }
    eq.run();

    // Ids increase in schedule order, so a stable sort by time is
    // the exact (when, seq) reference order.
    std::stable_sort(expected.begin(), expected.end(),
                     [](const auto &a, const auto &b) {
                         return a.first < b.first;
                     });
    EXPECT_EQ(fired, expected);
}

// ----------------------------------------------------------------
// Past the 2^32-tick mark: short-delta traffic keeps exact order
// once the clock has crossed it.
// ----------------------------------------------------------------

TEST(EventKernel, ShortDeltasPastThe32BitMarkStayOrdered)
{
    EventQueue eq;
    const Tick h = Tick(1) << 32;
    int jumps = 0;
    eq.schedule(3 * h + 17, [&] { ++jumps; }); // 3 * 2^32 ticks out
    eq.run();
    EXPECT_EQ(jumps, 1);
    EXPECT_EQ(eq.now(), 3 * h + 17);

    // Short-delta traffic far past 2^32 must stay ordered.
    std::vector<Tick> times;
    for (int burst = 0; burst < 16; ++burst) {
        for (int i = 0; i < 32; ++i)
            eq.scheduleIn(Tick(1 + i * 7),
                          [&] { times.push_back(eq.now()); });
        eq.run();
    }
    EXPECT_EQ(times.size(), 16u * 32u);
    EXPECT_TRUE(std::is_sorted(times.begin(), times.end()));
}

// ----------------------------------------------------------------
// Scattered deschedules from arbitrary heap slots, and events that
// re-enter afterwards, must leave an exact heap behind.
// ----------------------------------------------------------------

TEST(EventKernel, ScatteredDeschedulesKeepHeapConsistent)
{
    EventQueue eq;
    const Tick h = Tick(1) << 32;

    class IdEvent final : public Event
    {
      public:
        std::vector<unsigned> *out = nullptr;
        unsigned id = 0;
        void process() override { out->push_back(id); }
    };

    std::vector<unsigned> firedIds;
    std::vector<std::unique_ptr<IdEvent>> evs;
    for (unsigned i = 0; i < 300; ++i) {
        auto ev = std::make_unique<IdEvent>();
        ev->out = &firedIds;
        ev->id = i;
        eq.schedule(h + 1000 + i * 3, *ev);
        evs.push_back(std::move(ev));
    }
    EXPECT_EQ(eq.pending(), 300u);

    // Deschedule every third (arbitrary interior heap slots), then
    // move every seventh to an earlier far tick — including some
    // just-descheduled ones, which re-enter.
    std::vector<bool> sched(300, true), moved(300, false);
    for (unsigned i = 0; i < 300; i += 3) {
        eq.deschedule(*evs[i]);
        sched[i] = false;
    }
    for (unsigned i = 1; i < 300; i += 7) {
        if (sched[i])
            eq.deschedule(*evs[i]);
        eq.schedule(h + 500 + i, *evs[i]);
        sched[i] = true;
        moved[i] = true;
    }

    eq.run();

    std::vector<unsigned> expected;
    for (unsigned i = 1; i < 300; i += 7) // h+500+i, ascending in i
        if (moved[i])
            expected.push_back(i);
    for (unsigned i = 0; i < 300; ++i) // then h+1000+3i
        if (sched[i] && !moved[i])
            expected.push_back(i);
    EXPECT_EQ(firedIds, expected);
    EXPECT_EQ(eq.pending(), 0u);
}

// ----------------------------------------------------------------
// Self-profiler: per-tag counts.
// ----------------------------------------------------------------

TEST(EventKernel, ProfilerAttributesExecutionByTag)
{
    EventQueue eq;
    eq.schedule(1, [] {}, EvTag::Ate);
    eq.schedule(2, [] {}, EvTag::Ate);
    eq.schedule(3, [] {}, EvTag::Dms);
    std::vector<std::string> log;
    MarkEvent core(log, "core.tick", EvTag::Core);
    eq.schedule(4, core);
    eq.run();

    const auto &prof = eq.profile();
    EXPECT_EQ(prof.executed[unsigned(EvTag::Ate)], 2u);
    EXPECT_EQ(prof.executed[unsigned(EvTag::Dms)], 1u);
    EXPECT_EQ(prof.executed[unsigned(EvTag::Core)], 1u);
    EXPECT_EQ(prof.totalExecuted(), 4u);
}

// ----------------------------------------------------------------
// Reference model. Each seed drives the queue through a random mix
// of schedules (near deltas, deltas past 2^32 ticks, same-tick
// bursts, callbacks that schedule from inside their own firing),
// deschedule, destruction of pending intrusive events, bounded
// run(limit) and step(). A std::set of (when, seq) mirrors every
// pending event; after each operation the queue's firing order,
// clock, pending count and nextDue() must equal the model's.
// ----------------------------------------------------------------

namespace {

/** Intrusive event that logs its id when it fires. */
class LogEvent final : public Event
{
  public:
    LogEvent(std::vector<unsigned> &log_, unsigned id_)
        : log(log_), id(id_)
    {
    }
    void process() override { log.push_back(id); }

  private:
    std::vector<unsigned> &log;
    unsigned id;
};

/** The (when, seq) set the queue must behave like. */
class KernelModel
{
  public:
    struct Key
    {
        Tick when;
        std::uint64_t seq;
        unsigned id;

        bool
        operator<(const Key &o) const
        {
            return when != o.when ? when < o.when : seq < o.seq;
        }
    };

    /** Ids: intrusive [0, nIntr), then callbacks; a callback's
     *  child is id | childBit. */
    static constexpr unsigned childBit = 1u << 31;

    explicit KernelModel(unsigned nIntr_) : nIntr(nIntr_), intrKey(nIntr)
    {
    }

    Tick now = 0;
    std::vector<unsigned> fired;

    void
    scheduleCallback(Tick when, unsigned id, Tick childDelta,
                     bool spawns)
    {
        if (spawns)
            child[id] = childDelta;
        insert(when, id);
    }

    void
    scheduleIntrusive(unsigned i, Tick when)
    {
        intrKey[i] = insert(when, i);
    }

    bool intrusiveScheduled(unsigned i) const { return bool(intrKey[i]); }

    void
    descheduleIntrusive(unsigned i)
    {
        pending.erase(*intrKey[i]);
        intrKey[i].reset();
    }

    void
    run(Tick limit)
    {
        while (!pending.empty() && pending.begin()->when <= limit)
            fireFront();
        if (limit != dpu::sim::maxTick && now < limit)
            now = limit;
    }

    void
    step()
    {
        if (!pending.empty())
            fireFront();
    }

    Tick
    nextDue() const
    {
        return pending.empty() ? dpu::sim::maxTick
                               : pending.begin()->when;
    }

    std::size_t size() const { return pending.size(); }

  private:
    Key
    insert(Tick when, unsigned id)
    {
        const Key k{when, seq++, id};
        pending.insert(k);
        return k;
    }

    void
    fireFront()
    {
        const Key k = *pending.begin();
        pending.erase(pending.begin());
        now = k.when;
        fired.push_back(k.id);
        if (k.id < nIntr) {
            intrKey[k.id].reset();
        } else if (auto it = child.find(k.id); it != child.end()) {
            insert(k.when + it->second, k.id | childBit);
            child.erase(it);
        }
    }

    unsigned nIntr;
    std::set<Key> pending;
    std::uint64_t seq = 0;
    std::vector<std::optional<Key>> intrKey;
    std::map<unsigned, Tick> child;
};

/** A delta from one of three bands: near, mid, past 2^32 ticks. */
Tick
drawDelta(dpu::sim::Rng &rng)
{
    switch (rng.below(3)) {
      case 0: return rng.below(64);
      case 1: return rng.below(1u << 20);
      default: return (Tick(1) << 32) + rng.below(1u << 24);
    }
}

void
runReferenceModel(std::uint64_t seed, unsigned ops)
{
    constexpr unsigned nIntr = 12;

    dpu::sim::Rng rng(seed);
    EventQueue eq;
    KernelModel model(nIntr);
    std::vector<unsigned> log;

    std::vector<std::unique_ptr<LogEvent>> intr;
    for (unsigned i = 0; i < nIntr; ++i)
        intr.push_back(std::make_unique<LogEvent>(log, i));
    unsigned nextId = nIntr;

    auto scheduleCallback = [&](Tick when, bool spawns, Tick d) {
        const unsigned id = nextId++;
        model.scheduleCallback(when, id, d, spawns);
        if (spawns) {
            eq.schedule(when, [&log, &eq, id, d] {
                log.push_back(id);
                eq.scheduleIn(d, [&log, id] {
                    log.push_back(id | KernelModel::childBit);
                });
            });
        } else {
            eq.schedule(when, [&log, id] { log.push_back(id); });
        }
    };

    for (unsigned op = 0; op < ops; ++op) {
        const unsigned kind = unsigned(rng.below(10));
        switch (kind) {
          case 0: case 1: // one callback, any band
            scheduleCallback(eq.now() + drawDelta(rng), false, 0);
            break;
          case 2: { // same-tick burst, possibly at the current tick
            const Tick when = eq.now() + rng.below(3);
            const unsigned n = 2 + unsigned(rng.below(7));
            for (unsigned k = 0; k < n; ++k)
                scheduleCallback(when, false, 0);
            break;
          }
          case 3: // a callback that schedules a child when it fires
            scheduleCallback(eq.now() + drawDelta(rng), true,
                             rng.below(2) ? 0 : rng.below(4096));
            break;
          case 4: { // schedule an intrusive event, moving it if pending
            const unsigned i = unsigned(rng.below(nIntr));
            const Tick when = eq.now() + drawDelta(rng);
            ASSERT_EQ(intr[i]->scheduled(),
                      model.intrusiveScheduled(i));
            if (model.intrusiveScheduled(i)) {
                model.descheduleIntrusive(i);
                eq.deschedule(*intr[i]);
            }
            model.scheduleIntrusive(i, when);
            eq.schedule(when, *intr[i]);
            break;
          }
          case 5: { // deschedule an intrusive event if pending
            const unsigned i = unsigned(rng.below(nIntr));
            ASSERT_EQ(intr[i]->scheduled(),
                      model.intrusiveScheduled(i));
            if (model.intrusiveScheduled(i)) {
                model.descheduleIntrusive(i);
                eq.deschedule(*intr[i]);
            }
            break;
          }
          case 6: { // destroy a pending intrusive event, build a fresh one
            // The first pending one from a random start: its entry
            // sits anywhere in the heap, and only the destructor
            // takes it out.
            const unsigned start = unsigned(rng.below(nIntr));
            for (unsigned k = 0; k < nIntr; ++k) {
                const unsigned i = (start + k) % nIntr;
                ASSERT_EQ(intr[i]->scheduled(),
                          model.intrusiveScheduled(i));
                if (!model.intrusiveScheduled(i))
                    continue;
                model.descheduleIntrusive(i);
                intr[i] = std::make_unique<LogEvent>(log, i);
                break;
            }
            break;
          }
          case 7: case 8: { // bounded run
            const Tick limit = eq.now() + drawDelta(rng);
            model.run(limit);
            eq.run(limit);
            break;
          }
          default: // step
            model.step();
            eq.step();
            break;
        }
        ASSERT_EQ(log, model.fired) << "seed " << seed << " op " << op;
        ASSERT_EQ(eq.now(), model.now) << "seed " << seed << " op " << op;
        ASSERT_EQ(eq.pending(), model.size())
            << "seed " << seed << " op " << op;
        ASSERT_EQ(eq.nextDue(), model.nextDue())
            << "seed " << seed << " op " << op;
    }

    model.run(dpu::sim::maxTick);
    eq.run();
    EXPECT_EQ(log, model.fired) << "seed " << seed;
    EXPECT_EQ(eq.now(), model.now) << "seed " << seed;
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.nextDue(), dpu::sim::maxTick);
}

} // namespace

TEST(EventKernel, MatchesTheReferenceModelOnRandomOperationMixes)
{
    for (std::uint64_t seed = 1; seed <= 24; ++seed) {
        runReferenceModel(seed, 1500);
        if (HasFatalFailure())
            return;
    }
}
