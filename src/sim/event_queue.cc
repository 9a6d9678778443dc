/**
 * @file
 * Event-kernel internals: the (when, seq) heap and the
 * callback-event slab pool.
 */

#include "sim/event_queue.hh"

#include <chrono>

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
    std::pop_heap(heap.begin(), heap.end(), std::greater<>{});
    Event *ev = heap.back().ev;
    heap.pop_back();
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
    // scheduled other work.
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
    while (Event *ev = popNext(end)) {
        execute(*ev);
        ++executed;
    }
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
    const auto it =
        std::find_if(heap.begin(), heap.end(),
                     [&ev](const Entry &e) { return e.ev == &ev; });
    sim_assert(ev.queue_ == this && it != heap.end(),
               "descheduling event '%s' that is not scheduled here",
               ev.name());
    *it = heap.back();
    heap.pop_back();
    std::make_heap(heap.begin(), heap.end(), std::greater<>{});
    ev.queue_ = nullptr;
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

} // namespace dpu::sim
