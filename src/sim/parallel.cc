/**
 * @file
 * EpochRunner implementation: the worker pool, the outboxes, the
 * epoch loop, and the end-of-run clock alignment.
 */

#include "sim/parallel.hh"

#include <algorithm>

#include "sim/fault.hh"
#include "sim/logging.hh"
#include "sim/trace.hh"

namespace dpu::sim {

EpochRunner::EpochRunner(std::vector<EventQueue *> queues_,
                         const ParallelParams &params)
    : queues(std::move(queues_)), p(params),
      nWorkers(std::max(1u,
                        std::min(p.threads, unsigned(queues.size())))),
      outbox(queues.size()), reports(nWorkers)
{
    sim_assert(!queues.empty(), "EpochRunner needs a partition");
    // Partition d's events run in domain d.
    faultPlane().ensureDomains(partitions());
    tracer().ensureDomains(partitions());
    barrier.init(nWorkers);
    pool.reserve(nWorkers - 1);
    for (unsigned w = 1; w < nWorkers; ++w)
        pool.emplace_back([this, w] { workerMain(w); });
}

EpochRunner::~EpochRunner()
{
    if (!pool.empty()) {
        stopFlag.store(true, std::memory_order_release);
        barrier.arriveAndWait(); // release workers parked between runs
        for (auto &t : pool)
            t.join();
    }
}

void
EpochRunner::post(unsigned src, unsigned dst, Tick when,
                  EventQueue::Callback fn)
{
    sim_assert(src < partitions() && dst < partitions(),
               "bad post route %u -> %u", src, dst);
    sim_assert(onPartition(src),
               "post %u -> %u issued from partition %u", src, dst,
               currentDomain());
    outbox[src].push_back({dst, when, std::move(fn)});
}

void
EpochRunner::workerMain(unsigned w)
{
    for (;;) {
        barrier.arriveAndWait(); // a run starts (or the runner stops)
        if (stopFlag.load(std::memory_order_acquire))
            return;
        epochs(w);
    }
}

Tick
EpochRunner::drainOwned(unsigned w)
{
    // Every worker reads every outbox but moves only its own mail
    // out, so each queue receives its mail in (source, post) order.
    for (unsigned src = 0; src < partitions(); ++src) {
        for (Mail &m : outbox[src]) {
            if (m.dst % nWorkers != w)
                continue;
            EventQueue &q = *queues[m.dst];
            sim_assert(m.when >= q.now(),
                       "late delivery %u -> %u at tick %llu, clock "
                       "%llu (lookahead wider than the delivery "
                       "latency?)",
                       src, m.dst, (unsigned long long)m.when,
                       (unsigned long long)q.now());
            q.schedule(m.when, std::move(m.fn), EvTag::Link);
        }
    }
    Tick due = maxTick;
    for (unsigned d = w; d < partitions(); d += nWorkers)
        due = std::min(due, queues[d]->nextDue());
    return due;
}

std::uint64_t
EpochRunner::runOwned(unsigned w, Tick end)
{
    std::uint64_t executed = 0;
    for (unsigned d = w; d < queues.size(); d += nWorkers) {
        DomainScope ds(d);
        executed += queues[d]->runWindow(end);
    }
    return executed;
}

void
EpochRunner::epochs(unsigned w)
{
    // A local copy: the caller rewrites the limit for its next run
    // while a slow worker may still be checking this run's last
    // window.
    const Tick bound = limit;
    Report &mine = reports[w];
    bool first = true;
    Tick lastEnd = 0;
    for (;;) {
        mine.due = drainOwned(w);
        barrier.arriveAndWait(); // all mail read, every minimum published
        Tick next = maxTick;
        for (const Report &r : reports)
            next = std::min(next, r.due);
        if (next == maxTick || next > bound)
            return;
        for (unsigned d = w; d < partitions(); d += nWorkers)
            outbox[d].clear();
        Tick end = next + p.lookahead;
        if (end < next || end > bound) // overflow or bound
            end = bound;
        mine.executed = runOwned(w, end);
        barrier.arriveAndWait(); // every window run, its mail posted
        if (w != 0)
            continue;
        if (!first && next > lastEnd)
            ++st.idleSkips;
        first = false;
        lastEnd = end;
        ++st.epochs;
        std::uint64_t executed = 0;
        for (const Report &r : reports)
            executed += r.executed;
        if (executed == 0)
            ++st.emptyEpochs;
    }
}

Tick
EpochRunner::run(Tick bound)
{
    limit = bound;
    running = true;
    barrier.arriveAndWait(); // release the workers into the run
    epochs(0);
    running = false;
    // The last drain read every outbox: empty them, so the next
    // run's first drain does not schedule that mail again.
    for (std::vector<Mail> &box : outbox)
        box.clear();

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
