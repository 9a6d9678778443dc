/**
 * @file
 * EpochRunner implementation: the worker pool, the epoch loop, and
 * the end-of-run clock alignment.
 */

#include "sim/parallel.hh"

#include <algorithm>

#include "sim/domain.hh"
#include "sim/logging.hh"

namespace dpu::sim {

namespace {

thread_local const EventQueue *activeQueue = nullptr;

/** RAII activeEventQueue() marker around one partition's window. */
class ActiveQueueScope
{
  public:
    explicit ActiveQueueScope(const EventQueue *q) : prev(activeQueue)
    {
        activeQueue = q;
    }
    ~ActiveQueueScope() { activeQueue = prev; }

  private:
    const EventQueue *prev;
};

} // namespace

const EventQueue *
activeEventQueue()
{
    return activeQueue;
}

EpochRunner::EpochRunner(std::vector<EventQueue *> queues_,
                         const ParallelParams &params,
                         std::function<void(unsigned dst)> drain)
    : queues(std::move(queues_)), p(params), drainFn(std::move(drain))
{
    sim_assert(!queues.empty(), "EpochRunner needs a partition");
    nWorkers = std::max(1u,
                        std::min(p.threads, unsigned(queues.size())));
    if (nWorkers > 1) {
        barrier.init(nWorkers);
        pool.reserve(nWorkers - 1);
        for (unsigned w = 1; w < nWorkers; ++w)
            pool.emplace_back([this, w] { workerMain(w); });
    }
}

EpochRunner::~EpochRunner()
{
    if (!pool.empty()) {
        stopFlag.store(true, std::memory_order_release);
        barrier.arriveAndWait(); // release workers parked at A
        for (auto &t : pool)
            t.join();
    }
}

void
EpochRunner::workerMain(unsigned w)
{
    for (;;) {
        barrier.arriveAndWait(); // A: window published (or stop)
        if (stopFlag.load(std::memory_order_acquire))
            return;
        runOwned(w);
        barrier.arriveAndWait(); // B: all partitions quiesced
        drainOwned(w);
        barrier.arriveAndWait(); // C: all mailboxes drained
    }
}

void
EpochRunner::runOwned(unsigned w)
{
    std::uint64_t executed = 0;
    for (unsigned d = w; d < queues.size(); d += nWorkers) {
        DomainScope ds(d);
        ActiveQueueScope qs(queues[d]);
        executed += queues[d]->runWindow(epochEnd);
    }
    if (executed)
        epochExecuted.fetch_add(executed, std::memory_order_relaxed);
}

void
EpochRunner::drainOwned(unsigned w)
{
    for (unsigned d = w; d < queues.size(); d += nWorkers) {
        DomainScope ds(d);
        drainFn(d);
    }
}

void
EpochRunner::runEpoch()
{
    epochExecuted.store(0, std::memory_order_relaxed);
    if (pool.empty()) {
        runOwned(0);
        drainOwned(0);
    } else {
        barrier.arriveAndWait(); // A
        runOwned(0);
        barrier.arriveAndWait(); // B
        drainOwned(0);
        barrier.arriveAndWait(); // C
    }
    ++st.epochs;
    if (epochExecuted.load(std::memory_order_relaxed) == 0)
        ++st.emptyEpochs;
}

Tick
EpochRunner::run(Tick limit)
{
    // Deliver anything posted between runs (host-phase RPCs/DMAs)
    // before scanning for the first window.
    drainOwned(0);
    if (nWorkers > 1) {
        for (unsigned w = 1; w < nWorkers; ++w)
            drainOwned(w);
    }

    Tick lastEnd = 0;
    bool firstEpoch = true;
    for (;;) {
        Tick next = maxTick;
        for (const EventQueue *q : queues)
            next = std::min(next, q->nextDue());
        if (next == maxTick || next > limit)
            break;
        Tick end = next + p.lookahead;
        if (end < next || end > limit) // overflow or bound
            end = limit;
        if (!firstEpoch && next > lastEnd)
            ++st.idleSkips;
        firstEpoch = false;
        epochEnd = end;
        runEpoch();
        lastEnd = end;
    }

    // Align every clock on the common final tick so host-phase code
    // between runs sees the one board clock a shared queue showed.
    Tick final = 0;
    if (limit != maxTick) {
        final = limit;
    } else {
        for (const EventQueue *q : queues)
            final = std::max(final, q->now());
    }
    for (EventQueue *q : queues) {
        if (q->now() < final)
            q->run(final); // executes nothing; parks the clock
    }
    return final;
}

} // namespace dpu::sim
