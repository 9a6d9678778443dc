/**
 * @file
 * Event-kernel internals: the (when, seq) heap, the callback-event
 * slab pool, and the self-profiler's StatsRegistry surface.
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

EventQueue::EventQueue()
{
    // One allocation, made here, with room for more events than any
    // queue has been seen to hold at once (160 over the dpubench
    // workloads). Epoch-runner workers advance sibling queues in
    // parallel, and small buffers grown a few entries at a time sit
    // side by side and share cache lines that every pop writes:
    // that doubled the wall time of bench_simperf's 4-thread kernel
    // on a 4-vCPU host.
    heap.reserve(256);
}

EventQueue::~EventQueue()
{
    // Sever pending events from the dying queue so that member
    // events of longer-lived objects (and pooled events inside our
    // own slabs) do not try to deschedule themselves from freed
    // storage in their destructors.
    for (Entry &e : heap)
        e.ev->queue_ = nullptr;
}

// ----------------------------------------------------------------
// Execution
// ----------------------------------------------------------------

Event *
EventQueue::popNext(Tick limit)
{
    if (heap.empty() || heap.front().when > limit)
        return nullptr;
    Event *ev = heap.front().ev;
    removeAt(0);
    ev->queue_ = nullptr;
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
    sim_assert(ev.queue_ == this && ev.heapIdx_ < heap.size() &&
                   heap[ev.heapIdx_].ev == &ev,
               "descheduling event '%s' that is not scheduled here",
               ev.name());
    removeAt(ev.heapIdx_);
    ev.queue_ = nullptr;
    if (ev.poolOwned_)
        release(static_cast<CallbackEvent &>(ev));
}

// ----------------------------------------------------------------
// The heap: min-heap by (when, seq) with index maintenance so any
// resident deschedules in O(log n).
// ----------------------------------------------------------------

void
EventQueue::siftUp(std::size_t i)
{
    const Entry e = heap[i];
    while (i > 0) {
        const std::size_t parent = (i - 1) / 2;
        if (!(heap[parent] > e))
            break;
        heap[i] = heap[parent];
        heap[i].ev->heapIdx_ = i;
        i = parent;
    }
    heap[i] = e;
    heap[i].ev->heapIdx_ = i;
}

void
EventQueue::siftDown(std::size_t i)
{
    const Entry e = heap[i];
    const std::size_t n = heap.size();
    for (;;) {
        std::size_t child = 2 * i + 1;
        if (child >= n)
            break;
        if (child + 1 < n && heap[child] > heap[child + 1])
            ++child;
        if (!(e > heap[child]))
            break;
        heap[i] = heap[child];
        heap[i].ev->heapIdx_ = i;
        i = child;
    }
    heap[i] = e;
    heap[i].ev->heapIdx_ = i;
}

void
EventQueue::removeAt(std::size_t i)
{
    const Entry last = heap.back();
    heap.pop_back();
    if (i == heap.size())
        return;
    heap[i] = last;
    heap[i].ev->heapIdx_ = i;
    // The displaced tail can belong either above or below slot i;
    // one of the two sifts is a no-op.
    siftDown(i);
    siftUp(last.ev->heapIdx_);
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
    g.counter("pending") = heap.size();
    g.counter("poolSlabs") = prof.poolSlabs;
    g.counter("poolEvents") = prof.poolEvents;
    g.scalar("runWallNs") = prof.runWallNs;
    g.scalar("eventsPerSec") =
        prof.runWallNs > 0
            ? double(prof.totalExecuted()) / (prof.runWallNs * 1e-9)
            : 0.0;
}

} // namespace dpu::sim
