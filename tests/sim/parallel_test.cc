/**
 * @file
 * EpochRunner unit tests: the barrier/lookahead protocol edges and
 * the outboxes behind post().
 *
 *  - zero lookahead degenerates to serial (global tick) order;
 *  - a message whose latency equals the lookahead lands exactly on
 *    the next epoch, never inside the sending one;
 *  - same-tick posts to one partition arrive in (drain, source,
 *    post) order at every thread count, also from many sources;
 *  - host-phase posts are delivered before the next window opens,
 *    and mail a bounded run's last drain read is delivered once;
 *  - a post that lands in the receiver's past is fatal;
 *  - more partitions than workers (oversubscription) changes
 *    nothing observable;
 *  - idle gaps between event clusters are skipped, not marched
 *    through epoch by epoch, and every epoch opens on a real event:
 *    no runner case ever runs an empty epoch;
 *  - the runner sizes the trace and fault domains of its
 *    partitions;
 *  - nextDue() is the exact next event tick, near or far.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "sim/domain.hh"
#include "sim/event_queue.hh"
#include "sim/fault.hh"
#include "sim/parallel.hh"
#include "sim/trace.hh"

using namespace dpu;

namespace {

constexpr sim::Tick hop = 600'000; // the board link's 600 ns

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
    sim::EpochRunner r({&q0, &q1}, pp);
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
    sim::Tick delivered = 0;

    sim::ParallelParams pp;
    pp.threads = 1;
    pp.lookahead = hop;
    sim::EpochRunner r({&q0, &q1}, pp);
    q0.schedule(0, [&] {
        r.post(0, 1, hop, [&delivered, &q1] { delivered = q1.now(); });
    });
    // q1's own event on the boundary brings its clock to hop inside
    // epoch 1. The conservative invariant the whole design rests on
    // still holds: the receiver's clock has not passed the delivery
    // tick when the barrier schedules it (the drain asserts it; see
    // LateDeliveryIsFatal).
    q1.schedule(hop, [&q1] { EXPECT_EQ(q1.now(), hop); });
    const sim::Tick end = r.run();

    EXPECT_EQ(delivered, hop);
    EXPECT_EQ(end, hop);
    // Epoch 1 = [0, hop] runs the send; the delivery lands exactly
    // on the boundary and must execute in epoch 2, not epoch 1.
    EXPECT_EQ(r.stats().epochs, 2u);
    EXPECT_EQ(r.stats().emptyEpochs, 0u);
}

TEST(EpochRunner, SameTickPostsArriveInDrainSourcePostOrder)
{
    // Sources 2, 1, 0 post two messages each to partition 3 in epoch
    // 1, in that order of time, all for tick 2 * hop: they arrive
    // sorted by source, then by post. Source 2 also posts for tick
    // 3 * hop in epoch 1 and source 0 in epoch 2, so the earlier
    // drain comes first whatever the source: a delivery's place among
    // same-tick arrivals is fixed when it is drained.
    constexpr unsigned nq = 4;
    static constexpr unsigned dst = 3;
    constexpr sim::Tick t1 = 2 * hop, t2 = 3 * hop;
    struct Arrival
    {
        unsigned src, k;
        sim::Tick at;
        unsigned ranOn;

        bool operator==(const Arrival &) const = default;
    };
    const std::vector<Arrival> want = {
        {0, 0, t1, dst}, {0, 1, t1, dst}, {1, 0, t1, dst},
        {1, 1, t1, dst}, {2, 0, t1, dst}, {2, 1, t1, dst},
        {2, 2, t2, dst}, {0, 2, t2, dst},
    };

    for (const unsigned threads : {1u, 2u, 4u}) {
        std::vector<sim::EventQueue> qs(nq);
        std::vector<sim::EventQueue *> qp;
        for (auto &q : qs)
            qp.push_back(&q);
        sim::ParallelParams pp;
        pp.threads = threads;
        pp.lookahead = hop;
        sim::EpochRunner r(std::move(qp), pp);

        std::vector<Arrival> got; // written only on dst's partition
        auto post = [&](unsigned src, unsigned k, sim::Tick when) {
            r.post(src, dst, when, [&got, &qs, src, k] {
                got.push_back(Arrival{src, k, qs[dst].now(),
                                      sim::currentDomain()});
            });
        };
        for (const unsigned src : {0u, 1u, 2u}) {
            qs[src].schedule((2 - src) * 10, [&post, src] {
                post(src, 0, t1);
                post(src, 1, t1);
            });
        }
        qs[2].schedule(30, [&post] { post(2, 2, t2); });
        qs[0].schedule(hop + 50, [&post] { post(0, 2, t2); });

        EXPECT_EQ(r.run(), t2);
        EXPECT_EQ(got, want) << threads << " workers";
    }
}

TEST(EpochRunner, SameTickPostsFromManySourcesArriveInSourceOrder)
{
    // A drain reads the outboxes of all 130 partitions. Sources 129,
    // 1, 65 and 64 post, in that order of time, for one tick, and
    // their mail arrives in ascending source order at every thread
    // count.
    constexpr unsigned nq = 130;
    static constexpr unsigned dst = 7;
    constexpr sim::Tick at = 2 * hop;
    const std::vector<unsigned> order = {129, 1, 65, 64};
    const std::vector<unsigned> want = {1, 64, 65, 129};

    for (const unsigned threads : {1u, 2u, 4u}) {
        std::vector<sim::EventQueue> qs(nq);
        std::vector<sim::EventQueue *> qp;
        for (auto &q : qs)
            qp.push_back(&q);
        sim::ParallelParams pp;
        pp.threads = threads;
        pp.lookahead = hop;
        sim::EpochRunner r(std::move(qp), pp);

        std::vector<unsigned> got; // written only on dst's partition
        for (std::size_t i = 0; i < order.size(); ++i) {
            const unsigned src = order[i];
            qs[src].schedule(10 * (i + 1), [&r, &got, src] {
                r.post(src, dst, at, [&got, src] { got.push_back(src); });
            });
        }

        EXPECT_EQ(r.run(), at);
        EXPECT_EQ(got, want) << threads << " workers";
    }
}

TEST(EpochRunner, HostPhasePostsAreDeliveredBeforeTheNextWindow)
{
    for (const unsigned threads : {1u, 2u}) {
        sim::EventQueue q0, q1;
        sim::ParallelParams pp;
        pp.threads = threads;
        pp.lookahead = hop;
        sim::EpochRunner r({&q0, &q1}, pp);

        q0.schedule(100, [] {});
        const sim::Tick first = r.run();
        ASSERT_EQ(first, 100u);
        const std::uint64_t epochs = r.stats().epochs;

        // Between runs: a post to partition 1 due 5 ticks on, and a
        // far event on partition 0. The post must be drained before
        // the first window is placed, so that window opens on it
        // rather than on the far event (which would leave it behind
        // partition 1's clock).
        std::vector<sim::Tick> log;
        r.post(0, 1, first + 5, [&log, &q1] { log.push_back(q1.now()); });
        q0.schedule(first + 10 * hop,
                    [&log, &q0] { log.push_back(q0.now()); });
        const sim::Tick end = r.run();

        EXPECT_EQ(end, first + 10 * hop);
        EXPECT_EQ(log, (std::vector<sim::Tick>{first + 5,
                                               first + 10 * hop}))
            << threads << " workers";
        EXPECT_EQ(r.stats().epochs - epochs, 2u)
            << "one window per delivery, opened on its tick";
    }
}

namespace {

/** Two partitions, a lookahead ten hops wide: partition 0 posts at
 *  tick 0 for tick hop, while partition 1 runs to 5 hops inside the
 *  same epoch. */
void
runLateDelivery()
{
    sim::EventQueue q0;
    sim::EventQueue q1;
    sim::ParallelParams pp;
    pp.threads = 1;
    pp.lookahead = 10 * hop;
    sim::EpochRunner r({&q0, &q1}, pp);
    q0.schedule(0, [&r] { r.post(0, 1, hop, [] {}); });
    q1.schedule(5 * hop, [] {});
    r.run();
}

} // namespace

TEST(EpochRunnerDeathTest, LateDeliveryIsFatal)
{
    // A lookahead wider than the post's latency lets the receiver
    // run past the delivery tick before the barrier drains it.
    EXPECT_DEATH(runLateDelivery(), "late delivery 0 -> 1");
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
        sim::EpochRunner r(std::move(qp), pp);
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
    sim::EpochRunner r({&q0, &q1}, pp);
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
    sim::EpochRunner r({&q0, &q1}, pp);
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
    sim::EpochRunner r({&q0, &q1}, pp);
    EXPECT_EQ(r.run(), 0u);
    EXPECT_EQ(r.stats().epochs, 0u);
    EXPECT_EQ(r.stats().emptyEpochs, 0u);
}

TEST(EpochRunner, BoundedRunParksEveryClockOnTheLimit)
{
    for (const unsigned threads : {1u, 2u}) {
        sim::EventQueue q0, q1;
        q0.schedule(100, [] {});
        q1.schedule(5'000'000, [] {}); // beyond the bound

        sim::ParallelParams pp;
        pp.threads = threads;
        pp.lookahead = hop;
        sim::EpochRunner r({&q0, &q1}, pp);
        const sim::Tick end = r.run(1'000'000);

        EXPECT_EQ(end, 1'000'000u);
        EXPECT_EQ(q0.now(), 1'000'000u);
        EXPECT_EQ(q1.now(), 1'000'000u);
        EXPECT_EQ(q1.pending(), 1u) << "the future event must survive";
        EXPECT_EQ(r.stats().epochs, 1u);
        EXPECT_EQ(r.stats().emptyEpochs, 0u);

        // Mail due past the next bound: that run's last drain
        // schedules it and stops, and the run after delivers it
        // exactly once.
        std::vector<sim::Tick> got;
        r.post(0, 1, 3'000'000, [&got, &q1] { got.push_back(q1.now()); });
        EXPECT_EQ(r.run(2'000'000), 2'000'000u);
        EXPECT_TRUE(got.empty());
        EXPECT_EQ(q1.pending(), 2u);
        EXPECT_EQ(r.run(), 5'000'000u);
        EXPECT_EQ(got, std::vector<sim::Tick>{3'000'000})
            << threads << " workers";
    }
}

TEST(EpochRunner, SizesTheTraceAndFaultDomainsOfItsPartitions)
{
    // A runner built without a board still runs partition d in
    // domain d, so it sizes the per-domain planes itself: each
    // partition draws span ids and fault decisions from its own
    // domain's streams.
    constexpr unsigned nq = 3;
    sim::faultPlane().configure("link.delay@p=0.5", 7);
    sim::tracer().arm(64);
    std::vector<sim::EventQueue> qs(nq);
    std::vector<sim::EventQueue *> qp;
    for (auto &q : qs)
        qp.push_back(&q);
    sim::ParallelParams pp;
    pp.threads = 2;
    pp.lookahead = hop;
    sim::EpochRunner r(std::move(qp), pp);

    std::vector<std::uint64_t> ids(nq); // slot d written only by d
    for (unsigned d = 0; d < nq; ++d) {
        qs[d].schedule(10 * d, [&ids, &qs, d] {
            ids[d] = sim::tracer().nextId();
            sim::faultPlane().fires(sim::FaultSite::LinkDelay,
                                    qs[d].now());
        });
    }
    r.run();

    const sim::FaultRule &rule = sim::faultPlane().ruleSet().at(0);
    for (unsigned d = 0; d < nq; ++d) {
        EXPECT_EQ(ids[d], (std::uint64_t(d) << 32) | 1u) << d;
        EXPECT_EQ(rule.dom.at(d).seen, 1u) << d;
    }
    sim::tracer().disarm();
    sim::tracer().clear();
    sim::faultPlane().reset();
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
