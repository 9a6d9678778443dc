/**
 * @file
 * EpochRunner unit tests: the barrier/lookahead protocol edges.
 *
 *  - zero lookahead degenerates to serial (global tick) order;
 *  - a message whose latency equals the lookahead lands exactly on
 *    the next epoch, never inside the sending one;
 *  - more partitions than workers (oversubscription) changes
 *    nothing observable;
 *  - idle gaps between event clusters are skipped, not marched
 *    through epoch by epoch, and every epoch opens on a real event:
 *    no runner case ever runs an empty epoch;
 *  - nextDue() is the exact next event tick, near or far.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/parallel.hh"

using namespace dpu;

namespace {

constexpr sim::Tick hop = 600'000; // the board link's 600 ns

/** No-op drain for runs without cross-partition traffic. */
void
noDrain(unsigned)
{
}

} // namespace

TEST(EpochRunner, ZeroLookaheadRunsInGlobalTickOrder)
{
    sim::EventQueue q0, q1;
    std::vector<std::pair<unsigned, sim::Tick>> log;
    for (unsigned i = 0; i < 40; ++i) {
        const sim::Tick t0 = i * 10;
        const sim::Tick t1 = i * 10 + 5;
        q0.schedule(t0, [&log, t0] { log.push_back({0, t0}); });
        q1.schedule(t1, [&log, t1] { log.push_back({1, t1}); });
    }

    sim::ParallelParams pp;
    pp.threads = 1;
    pp.lookahead = 0; // tick-lockstep: the serial-order fallback
    sim::EpochRunner r({&q0, &q1}, pp, noDrain);
    const sim::Tick end = r.run();

    ASSERT_EQ(log.size(), 80u);
    EXPECT_TRUE(std::is_sorted(
        log.begin(), log.end(),
        [](const auto &a, const auto &b) {
            return a.second < b.second;
        }))
        << "zero lookahead must interleave partitions in global "
           "tick order";
    EXPECT_EQ(end, sim::Tick(39 * 10 + 5));
    EXPECT_EQ(q0.now(), end);
    EXPECT_EQ(q1.now(), end);
    EXPECT_EQ(r.stats().epochs, 80u) << "one epoch per event tick";
    EXPECT_EQ(r.stats().emptyEpochs, 0u);
}

TEST(EpochRunner, HopLatencyMessageStraddlesTheEpochBoundary)
{
    sim::EventQueue q0, q1;
    std::vector<sim::Tick> inbox; // deliveries bound for q1
    sim::Tick delivered = 0;

    q0.schedule(0, [&inbox] { inbox.push_back(hop); });

    sim::ParallelParams pp;
    pp.threads = 1;
    pp.lookahead = hop;
    sim::EpochRunner r(
        {&q0, &q1}, pp, [&](unsigned dst) {
            if (dst != 1)
                return;
            for (const sim::Tick when : inbox) {
                // The conservative invariant the whole design rests
                // on: the receiver's clock has not passed the
                // delivery tick when the barrier schedules it.
                EXPECT_GE(when, q1.now());
                q1.schedule(when,
                            [&delivered, &q1] { delivered = q1.now(); });
            }
            inbox.clear();
        });
    const sim::Tick end = r.run();

    EXPECT_EQ(delivered, hop);
    EXPECT_EQ(end, hop);
    // Epoch 1 = [0, hop] runs the send; the delivery lands exactly
    // on the boundary and must execute in epoch 2, not epoch 1.
    EXPECT_EQ(r.stats().epochs, 2u);
    EXPECT_EQ(r.stats().emptyEpochs, 0u);
}

TEST(EpochRunner, OversubscriptionIsInvisible)
{
    // 4 partitions on 1, 2 (oversubscribed) and 8 (clamped) workers:
    // identical per-partition schedules, identical final clock.
    constexpr unsigned nq = 4;
    std::vector<std::vector<sim::Tick>> ref;
    sim::Tick refEnd = 0;

    for (const unsigned threads : {1u, 2u, 8u}) {
        std::vector<sim::EventQueue> qs(nq);
        // One log per partition, written only by its owning worker.
        std::vector<std::vector<sim::Tick>> logs(nq);
        for (unsigned d = 0; d < nq; ++d) {
            for (unsigned i = 0; i < 50; ++i) {
                const sim::Tick t = d * 3 + i * 97;
                qs[d].schedule(t, [&logs, d, t] {
                    logs[d].push_back(t);
                });
            }
        }
        std::vector<sim::EventQueue *> qp;
        for (auto &q : qs)
            qp.push_back(&q);

        sim::ParallelParams pp;
        pp.threads = threads;
        pp.lookahead = hop;
        sim::EpochRunner r(std::move(qp), pp, noDrain);
        EXPECT_EQ(r.workers(), std::min(threads, nq));
        const sim::Tick end = r.run();
        EXPECT_EQ(r.stats().emptyEpochs, 0u);

        if (threads == 1) {
            ref = logs;
            refEnd = end;
        } else {
            EXPECT_EQ(logs, ref)
                << threads << " workers diverged from serial";
            EXPECT_EQ(end, refEnd);
        }
    }
}

TEST(EpochRunner, IdleGapsAreSkippedNotMarched)
{
    sim::EventQueue q0, q1; // q1 stays empty throughout
    bool late = false;
    q0.schedule(0, [] {});
    q0.schedule(10'000'000, [&late] { late = true; });

    sim::ParallelParams pp;
    pp.threads = 1;
    pp.lookahead = 1'000;
    sim::EpochRunner r({&q0, &q1}, pp, noDrain);
    r.run();

    EXPECT_TRUE(late);
    // Lockstep marching would need ~10'000 epochs; the window scan
    // jumps the gap straight to the second event.
    EXPECT_EQ(r.stats().epochs, 2u);
    EXPECT_EQ(r.stats().idleSkips, 1u);
    EXPECT_EQ(r.stats().emptyEpochs, 0u);
}

TEST(EpochRunner, EventsSpacedWiderThanTheLookaheadTakeOneEpochEach)
{
    // K events on two partitions, each 0x1234567 ticks after the
    // last. That spacing puts every event deep inside a window of
    // 2^24 ticks (and again of 2^16 and 2^8), so a next-event bound
    // that rounds down to such a window start opens empty epochs
    // before reaching the event. With the exact next event, each
    // event gets its own epoch and each gap one idle skip.
    constexpr unsigned k = 8;
    constexpr sim::Tick spacing = 0x1234567;
    sim::EventQueue q0, q1;
    std::vector<sim::Tick> fired;
    for (unsigned i = 0; i < k; ++i) {
        const sim::Tick t = (i + 1) * spacing;
        (i % 2 ? q1 : q0).schedule(t, [&fired, t] {
            fired.push_back(t);
        });
    }

    sim::ParallelParams pp;
    pp.threads = 1;
    pp.lookahead = 1'000;
    sim::EpochRunner r({&q0, &q1}, pp, noDrain);
    const sim::Tick end = r.run();

    ASSERT_EQ(fired.size(), k);
    EXPECT_TRUE(std::is_sorted(fired.begin(), fired.end()));
    EXPECT_EQ(end, k * spacing);
    EXPECT_EQ(r.stats().epochs, k);
    EXPECT_EQ(r.stats().idleSkips, k - 1);
    EXPECT_EQ(r.stats().emptyEpochs, 0u);
}

TEST(EpochRunner, EmptyBoardFinishesImmediately)
{
    sim::EventQueue q0, q1;
    sim::ParallelParams pp;
    pp.threads = 2;
    pp.lookahead = hop;
    sim::EpochRunner r({&q0, &q1}, pp, noDrain);
    EXPECT_EQ(r.run(), 0u);
    EXPECT_EQ(r.stats().epochs, 0u);
    EXPECT_EQ(r.stats().emptyEpochs, 0u);
}

TEST(EpochRunner, BoundedRunParksEveryClockOnTheLimit)
{
    sim::EventQueue q0, q1;
    q0.schedule(100, [] {});
    q1.schedule(5'000'000, [] {}); // beyond the bound

    sim::ParallelParams pp;
    pp.threads = 1;
    pp.lookahead = hop;
    sim::EpochRunner r({&q0, &q1}, pp, noDrain);
    const sim::Tick end = r.run(1'000'000);

    EXPECT_EQ(end, 1'000'000u);
    EXPECT_EQ(q0.now(), 1'000'000u);
    EXPECT_EQ(q1.now(), 1'000'000u);
    EXPECT_EQ(q1.pending(), 1u) << "the future event must survive";
    EXPECT_EQ(r.stats().epochs, 1u);
    EXPECT_EQ(r.stats().emptyEpochs, 0u);
}

TEST(NextDue, IsExactForNearOuterAndFarEvents)
{
    sim::EventQueue q;
    EXPECT_EQ(q.nextDue(), sim::maxTick);

    q.schedule(5, [] {});
    EXPECT_EQ(q.nextDue(), 5u);

    q.schedule(1'000'000, [] {});
    EXPECT_EQ(q.nextDue(), 5u);

    // Ticks that differ from the clock in an outer 8-bit digit (the
    // 2^16 and 2^24 windows) and one past 2^40.
    const sim::Tick outer16 = (sim::Tick(3) << 16) + 0x1234;
    const sim::Tick outer24 = (sim::Tick(7) << 24) + 0x56789a;
    const sim::Tick far = (sim::Tick(1) << 40) + 3;
    q.schedule(far, [] {});
    q.schedule(outer24, [] {});
    q.schedule(outer16, [] {});
    EXPECT_EQ(q.nextDue(), 5u);

    // Every window run leaves the exact next tick at the front,
    // including an empty window that stops short of it.
    q.runWindow(5);
    EXPECT_EQ(q.nextDue(), outer16);
    q.runWindow(outer16 - 1);
    EXPECT_EQ(q.nextDue(), outer16) << "an empty window changes nothing";
    q.runWindow(outer16);
    EXPECT_EQ(q.nextDue(), 1'000'000u);
    q.runWindow(1'000'000);
    EXPECT_EQ(q.nextDue(), outer24);
    q.runWindow(outer24);
    EXPECT_EQ(q.nextDue(), far);

    // Descheduling the front exposes the next one; a schedule below
    // the front becomes the front.
    sim::EventQueue d;
    struct Noop final : sim::Event
    {
        void process() override {}
    } a, b;
    d.schedule(far, a);
    d.schedule(outer24, b);
    EXPECT_EQ(d.nextDue(), outer24);
    d.deschedule(b);
    EXPECT_EQ(d.nextDue(), far);
    d.schedule(outer16, b);
    EXPECT_EQ(d.nextDue(), outer16);
    d.deschedule(b);
    d.deschedule(a);
    EXPECT_EQ(d.nextDue(), sim::maxTick);
}
