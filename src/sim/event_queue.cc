/**
 * @file
 * Event-kernel internals: timing-wheel cascade and search, the
 * overflow heap, the callback-event slab pool, and the
 * self-profiler's StatsRegistry surface.
 */

#include "sim/event_queue.hh"

#include <chrono>
#include <string>

#include "sim/stats.hh"

namespace dpu::sim {

namespace {

using WallClock = std::chrono::steady_clock;

double
elapsedNs(WallClock::time_point t0)
{
    return std::chrono::duration<double, std::nano>(
               WallClock::now() - t0)
        .count();
}

} // namespace

EventQueue::EventQueue() = default;

EventQueue::~EventQueue()
{
    // Sever pending events from the dying queue so that member
    // events of longer-lived objects (and pooled events inside our
    // own slabs) do not try to deschedule themselves from freed
    // storage in their destructors.
    for (auto &level : wheel) {
        for (Slot &s : level) {
            for (Event *ev = s.head; ev;) {
                Event *next = ev->next_;
                ev->queue_ = nullptr;
                ev->where_ = Event::Where::None;
                ev->prev_ = ev->next_ = nullptr;
                ev = next;
            }
        }
    }
    for (FarEntry &e : far) {
        e.ev->queue_ = nullptr;
        e.ev->where_ = Event::Where::None;
    }
}

// ----------------------------------------------------------------
// Timing wheel
// ----------------------------------------------------------------

void
EventQueue::place(Event &ev)
{
    // Level k holds ticks that agree with wheelBase on every digit
    // above k; equivalently, when XOR wheelBase fits in (k+1)
    // digits. Everything farther overflows to the (when, seq) heap.
    const Tick w = ev.when_;
    sim_assert(w >= wheelBase,
               "placing event '%s' behind the wheel base "
               "(%llu < %llu)",
               ev.name(), (unsigned long long)w,
               (unsigned long long)wheelBase);
    const Tick x = w ^ wheelBase;
    unsigned lvl;
    if (x < (Tick(1) << levelBits))
        lvl = 0;
    else if (x < (Tick(1) << (2 * levelBits)))
        lvl = 1;
    else if (x < (Tick(1) << (3 * levelBits)))
        lvl = 2;
    else if (x < (Tick(1) << (4 * levelBits)))
        lvl = 3;
    else {
        ev.heapIdx_ = far.size();
        far.push_back({w, ev.seq_, &ev});
        ev.where_ = Event::Where::Heap;
        farSiftUp(far.size() - 1);
        ++prof.heapInserts;
        return;
    }
    pushSlot(lvl, unsigned(w >> (levelBits * lvl)) &
                      (slotsPerLevel - 1),
             ev);
    ++nWheel;
}

Event *
EventQueue::wheelPeek(Tick cap)
{
    if (nWheel == 0)
        return nullptr;
    for (;;) {
        // Level 0 slots hold exactly one tick each and are FIFO
        // lists, so the lowest set slot's head is the wheel's
        // earliest (when, seq).
        const int slot = findFirst(bits[0]);
        if (slot >= 0)
            return wheel[0][unsigned(slot)].head;

        // Advance the wheel base to the next populated window of
        // the nearest outer level and pull that slot inward. Slots
        // behind the base are empty by construction, so the lowest
        // set bit is always the next window in time.
        unsigned lvl = 1;
        for (; lvl < nLevels; ++lvl) {
            const int j = findFirst(bits[lvl]);
            if (j < 0)
                continue;
            const unsigned shift = levelBits * lvl;
            const Tick windowMask =
                (Tick(slotsPerLevel) << shift) - 1;
            const Tick windowStart =
                (wheelBase & ~windowMask) |
                (Tick(unsigned(j)) << shift);
            // windowStart lower-bounds every wheel event (all live
            // in or beyond this window). Entering a window past the
            // cap would strand the base above a tick the caller can
            // stop at — and schedule from — so report "nothing due
            // by cap" and leave the base untouched.
            if (windowStart > cap)
                return nullptr;
            wheelBase = windowStart;
            cascade(lvl, unsigned(j));
            break;
        }
        sim_assert(lvl < nLevels,
                   "wheel bitmaps empty with %zu events resident",
                   nWheel);
    }
}

void
EventQueue::cascade(unsigned lvl, unsigned slot)
{
    Slot &s = wheel[lvl][slot];
    Event *ev = s.head;
    s.head = s.tail = nullptr;
    bits[lvl][slot >> 6] &= ~(1ull << (slot & 63));
    ++prof.cascades;
    // Walking in list order preserves seq order per target slot:
    // every event already resident sorts before any later direct
    // insert, because direct inserts into a window only start once
    // the base has entered it — i.e. after this cascade.
    while (ev) {
        Event *next = ev->next_;
        ev->prev_ = ev->next_ = nullptr;
        --nWheel;
        place(*ev); // recomputes the level against the new base
        ++prof.cascadedEvents;
        ev = next;
    }
}

// ----------------------------------------------------------------
// Execution
// ----------------------------------------------------------------

Event *
EventQueue::popNext(Tick limit)
{
    // Cap the base advance at both the run bound and the heap
    // front: after stopping at either, code may schedule anywhere
    // at or after curTick, so the base must not have moved past
    // them (see the wheelBase invariant in the header).
    Tick cap = limit;
    if (!far.empty() && far.front().when < cap)
        cap = far.front().when;
    Event *wev = wheelPeek(cap);
    bool useFar = false;
    if (!far.empty()) {
        const FarEntry &h = far.front();
        // Merge the two structures on exact (when, seq): same-tick
        // FIFO order holds even when one tick's events straddle the
        // wheel horizon. A null wev means no wheel event is due at
        // or before cap, so the heap front (== cap when due) wins.
        if (!wev || h.when < wev->when_ ||
            (h.when == wev->when_ && h.seq < wev->seq_))
            useFar = true;
    }

    Event *ev;
    if (useFar) {
        if (far.front().when > limit)
            return nullptr;
        ev = far.front().ev;
        farRemoveAt(0);
    } else {
        if (!wev || wev->when_ > limit)
            return nullptr;
        ev = wev;
        unlinkWheel(*ev);
        --nWheel;
    }

    ev->where_ = Event::Where::None;
    ev->queue_ = nullptr;
    --nScheduled;
    curTick = ev->when_;
    return ev;
}

void
EventQueue::execute(Event &ev)
{
    const unsigned t = unsigned(ev.tag_);
    // Read the recycle flag before process(): the callback may
    // schedule, and a pool-owned carrier must go back even if it
    // rescheduled other work.
    const bool owned = ev.poolOwned_;
    ++prof.executed[t];
    if (wallProfiling) {
        const auto t0 = WallClock::now();
        ev.process();
        prof.wallNs[t] += elapsedNs(t0);
    } else {
        ev.process();
    }
    if (owned)
        release(static_cast<CallbackEvent &>(ev));
}

std::uint64_t
EventQueue::runWindow(Tick end)
{
    std::uint64_t executed = 0;
    const auto t0 = wallProfiling ? WallClock::now()
                                  : WallClock::time_point{};
    while (Event *ev = popNext(end)) {
        execute(*ev);
        ++executed;
    }
    if (wallProfiling)
        prof.runWallNs += elapsedNs(t0);
    return executed;
}

std::uint64_t
EventQueue::run(Tick limit)
{
    const std::uint64_t executed = runWindow(limit);
    // A bounded run always lands exactly on its bound — whether the
    // queue drained or events remain beyond it — so quantum-stepped
    // callers and stats windows see now() == limit, never a clock
    // stuck at the last executed event.
    if (limit != maxTick && curTick < limit)
        curTick = limit;
    return executed;
}

Tick
EventQueue::nextDueLowerBound() const
{
    Tick best = maxTick;
    if (!far.empty())
        best = far.front().when;
    if (nWheel == 0)
        return best;
    // The first non-empty level lower-bounds every deeper one: a
    // level-k resident differs from the base in digit k and agrees
    // above, and ticks never precede the base, so it fires before
    // anything parked at level k+1.
    for (unsigned lvl = 0; lvl < nLevels; ++lvl) {
        const int s = findFirst(bits[lvl]);
        if (s < 0)
            continue;
        Tick lb;
        if (lvl == 0) {
            // Level-0 slots hold exactly one tick: exact.
            lb = (wheelBase & ~Tick(slotsPerLevel - 1)) |
                 Tick(unsigned(s));
        } else {
            const unsigned shift = levelBits * lvl;
            const Tick windowMask =
                (Tick(slotsPerLevel) << shift) - 1;
            lb = (wheelBase & ~windowMask) |
                 (Tick(unsigned(s)) << shift);
        }
        if (lb < best)
            best = lb;
        break;
    }
    return best;
}

bool
EventQueue::step()
{
    Event *ev = popNext(maxTick);
    if (!ev)
        return false;
    execute(*ev);
    return true;
}

void
EventQueue::deschedule(Event &ev)
{
    sim_assert(ev.queue_ == this &&
                   ev.where_ != Event::Where::None,
               "descheduling event '%s' that is not scheduled here",
               ev.name());
    if (ev.where_ == Event::Where::Wheel) {
        unlinkWheel(ev);
        --nWheel;
    } else {
        sim_assert(ev.heapIdx_ < far.size() &&
                       far[ev.heapIdx_].ev == &ev,
                   "heap entry missing for '%s'", ev.name());
        farRemoveAt(ev.heapIdx_);
    }
    ev.where_ = Event::Where::None;
    ev.queue_ = nullptr;
    --nScheduled;
    if (ev.poolOwned_)
        release(static_cast<CallbackEvent &>(ev));
}

// ----------------------------------------------------------------
// Overflow heap: min-heap by (when, seq) with index maintenance so
// heap residents deschedule in O(log n).
// ----------------------------------------------------------------

void
EventQueue::farSiftUp(std::size_t i)
{
    const FarEntry e = far[i];
    while (i > 0) {
        const std::size_t parent = (i - 1) / 2;
        if (!(far[parent] > e))
            break;
        far[i] = far[parent];
        far[i].ev->heapIdx_ = i;
        i = parent;
    }
    far[i] = e;
    far[i].ev->heapIdx_ = i;
}

void
EventQueue::farSiftDown(std::size_t i)
{
    const FarEntry e = far[i];
    const std::size_t n = far.size();
    for (;;) {
        std::size_t child = 2 * i + 1;
        if (child >= n)
            break;
        if (child + 1 < n && far[child] > far[child + 1])
            ++child;
        if (!(e > far[child]))
            break;
        far[i] = far[child];
        far[i].ev->heapIdx_ = i;
        i = child;
    }
    far[i] = e;
    far[i].ev->heapIdx_ = i;
}

void
EventQueue::farRemoveAt(std::size_t i)
{
    const FarEntry last = far.back();
    far.pop_back();
    if (i == far.size())
        return;
    far[i] = last;
    far[i].ev->heapIdx_ = i;
    // The displaced tail can belong either above or below slot i;
    // one of the two sifts is a no-op.
    farSiftDown(i);
    farSiftUp(last.ev->heapIdx_);
}

// ----------------------------------------------------------------
// Callback-event pool
// ----------------------------------------------------------------

EventQueue::CallbackEvent &
EventQueue::acquire()
{
    if (!freeList)
        growPool();
    CallbackEvent *ev = freeList;
    freeList = static_cast<CallbackEvent *>(ev->next_);
    ev->next_ = nullptr;
    ev->poolOwned_ = true;
    return *ev;
}

void
EventQueue::release(CallbackEvent &ev)
{
    ev.cb.reset(); // drop captured resources eagerly
    ev.poolOwned_ = false;
    ev.tag_ = EvTag::Generic;
    ev.next_ = freeList;
    freeList = &ev;
}

void
EventQueue::growPool()
{
    auto slab = std::make_unique<CallbackEvent[]>(slabEvents);
    for (std::size_t i = 0; i < slabEvents; ++i) {
        slab[i].next_ = freeList;
        freeList = &slab[i];
    }
    slabs.push_back(std::move(slab));
    ++prof.poolSlabs;
    prof.poolEvents += slabEvents;
}

// ----------------------------------------------------------------
// Self-profiler surface
// ----------------------------------------------------------------

void
EventQueue::publishStats()
{
    if (!statGroup)
        statGroup = std::make_unique<StatGroup>("eventq");
    StatGroup &g = *statGroup;
    g.counter("executed") = prof.totalExecuted();
    for (unsigned t = 0; t < nEvTags; ++t) {
        const std::string tag = evTagName(EvTag(t));
        g.counter("executed." + tag) = prof.executed[t];
        g.scalar("wallNs." + tag) = prof.wallNs[t];
    }
    g.counter("schedules") = prof.schedules;
    g.counter("maxPending") = prof.maxPending;
    g.counter("pending") = nScheduled;
    g.counter("heapInserts") = prof.heapInserts;
    g.counter("cascades") = prof.cascades;
    g.counter("cascadedEvents") = prof.cascadedEvents;
    g.counter("poolSlabs") = prof.poolSlabs;
    g.counter("poolEvents") = prof.poolEvents;
    g.scalar("runWallNs") = prof.runWallNs;
    g.scalar("eventsPerSec") =
        prof.runWallNs > 0
            ? double(prof.totalExecuted()) / (prof.runWallNs * 1e-9)
            : 0.0;
}

} // namespace dpu::sim
