/**
 * @file
 * A9 host-complex tests (Section 2.4): the offload handshake — the
 * host posts work pointers through the MBC, dpCores execute and ack
 * back — plus blocking-receive semantics and host-side time.
 */

#include <gtest/gtest.h>

#include <vector>

#include "soc/host_a9.hh"
#include "soc/soc.hh"

using namespace dpu;

TEST(HostA9, OffloadHandshakeRoundTrip)
{
    soc::Soc s;

    // Work descriptors in DRAM: [input ptr, length, output ptr].
    for (unsigned id = 0; id < 8; ++id) {
        mem::Addr desc = 0x1000 + id * 64;
        s.memory().store().store<std::uint64_t>(desc, 0x100000 +
                                                          id * 4096);
        s.memory().store().store<std::uint64_t>(desc + 8, 1024);
        for (std::uint32_t i = 0; i < 256; ++i)
            s.memory().store().store<std::uint32_t>(
                0x100000 + id * 4096 + i * 4, id * 1000 + i);
    }

    std::vector<std::uint64_t> sums(8, 0);
    for (unsigned id = 0; id < 8; ++id) {
        s.start(id, [&, id](core::DpCore &c) {
            std::uint64_t desc = s.mbc().recv(c);
            mem::Addr in = c.load<std::uint64_t>(desc);
            std::uint64_t len = c.load<std::uint64_t>(desc + 8);
            std::uint64_t sum = 0;
            for (std::uint64_t i = 0; i < len; i += 4)
                sum += c.load<std::uint32_t>(in + i);
            sums[id] = sum;
            s.mbc().send(c, s.mbc().a9Box(), desc);
        });
    }

    unsigned acks = 0;
    s.a9().start([&](soc::HostA9 &host) {
        for (unsigned id = 0; id < 8; ++id) {
            host.busyUs(0.5); // driver overhead per submission
            host.sendToCore(id, 0x1000 + id * 64);
        }
        for (unsigned id = 0; id < 8; ++id) {
            (void)host.recv();
            ++acks;
        }
    });

    s.run();
    EXPECT_TRUE(s.allFinished());
    EXPECT_TRUE(s.a9().finished());
    EXPECT_EQ(acks, 8u);
    for (unsigned id = 0; id < 8; ++id) {
        std::uint64_t expect = 0;
        for (std::uint32_t i = 0; i < 256; ++i)
            expect += id * 1000 + i;
        EXPECT_EQ(sums[id], expect) << "core " << id;
    }
}

TEST(HostA9, RecvBlocksUntilCoreResponds)
{
    soc::Soc s;
    sim::Tick host_got_at = 0;

    s.start(0, [&](core::DpCore &c) {
        c.sleepCycles(80'000); // 100 us of work
        s.mbc().send(c, s.mbc().a9Box(), 7);
    });
    s.a9().start([&](soc::HostA9 &host) {
        EXPECT_EQ(host.recv(), 7u);
        host_got_at = host.now();
    });
    s.run();
    EXPECT_TRUE(s.a9().finished());
    EXPECT_GE(host_got_at, sim::dpCoreClock.cyclesToTicks(80'000));
}

TEST(HostA9, BusyUsAdvancesSimulatedTime)
{
    soc::Soc s;
    s.a9().start([&](soc::HostA9 &host) { host.busyUs(25.0); });
    s.run();
    EXPECT_TRUE(s.a9().finished());
    EXPECT_GE(s.now(), sim::Tick(25e6));
}

TEST(HostA9, RecvUntilNowPollsWithoutBlocking)
{
    soc::Soc s;

    s.start(0, [&](core::DpCore &c) {
        c.sleepCycles(8'000); // 10 us of work before the reply
        s.mbc().send(c, s.mbc().a9Box(), 42);
    });

    bool empty_at_start = false;
    std::uint64_t got = 0;
    unsigned polls = 0;
    s.a9().start([&](soc::HostA9 &host) {
        std::uint64_t msg;
        empty_at_start = !host.recvUntil(host.now(), msg);
        // Poll loop: each miss costs host time, or we'd spin at one
        // tick forever.
        while (!host.recvUntil(host.now(), msg)) {
            ++polls;
            host.busyUs(1.0);
        }
        got = msg;
    });

    s.run();
    EXPECT_TRUE(s.a9().finished());
    EXPECT_TRUE(empty_at_start);
    EXPECT_EQ(got, 42u);
    EXPECT_GE(polls, 1u);
}

TEST(HostA9, RecvUntilTimesOutThenDelivers)
{
    soc::Soc s;

    s.start(0, [&](core::DpCore &c) {
        c.sleepCycles(80'000); // replies at ~100 us
        s.mbc().send(c, s.mbc().a9Box(), 9);
    });

    bool first = true, second = false;
    sim::Tick woke_at = 0, delivered_at = 0;
    std::uint64_t got = 0;
    std::size_t pending = ~std::size_t(0);
    s.a9().start([&](soc::HostA9 &host) {
        std::uint64_t msg;
        // Deadline at 10 us: nothing has arrived, must time out at
        // exactly the deadline, not hang.
        first = host.recvUntil(sim::Tick(10e6), msg);
        woke_at = host.now();
        // Generous second deadline: the reply must cut it short.
        second = host.recvUntil(sim::Tick(1e12), msg);
        got = msg;
        delivered_at = host.now();
        // The core is done and the message consumed: the wait's
        // deadline must not still be queued.
        pending = s.eventQueue().pending();
    });

    s.run();
    EXPECT_TRUE(s.a9().finished());
    EXPECT_FALSE(first);
    EXPECT_EQ(woke_at, sim::Tick(10e6));
    EXPECT_TRUE(second);
    EXPECT_EQ(got, 9u);
    // The wait ended on delivery, far before the 1e12 deadline, and
    // so did the run: no abandoned timer drains after it.
    EXPECT_LT(delivered_at, sim::Tick(1e9));
    EXPECT_EQ(pending, 0u);
    EXPECT_EQ(s.now(), delivered_at);
}

TEST(HostA9, WakeByOnlyMovesABlockedDeadlineEarlier)
{
    soc::Soc s;

    std::vector<bool> results;
    std::vector<sim::Tick> wokeAt;
    s.a9().start([&](soc::HostA9 &host) {
        std::uint64_t msg;
        for (sim::Tick until : {sim::Tick(1e9), sim::maxTick}) {
            results.push_back(host.recvUntil(until, msg));
            wokeAt.push_back(host.now());
        }
        host.busyUs(10.0);
        wokeAt.push_back(host.now());
    });

    // Host phase: a later deadline leaves the wait alone, an earlier
    // one ends it there with a timeout.
    s.runFor(sim::Tick(100e6));
    s.a9().wakeBy(sim::Tick(2e9));
    s.a9().wakeBy(sim::Tick(300e6));
    // The unbounded wait armed nothing; pull it in to now.
    s.runFor(sim::Tick(400e6));
    EXPECT_EQ(wokeAt.size(), 1u);
    s.a9().wakeBy(0);
    // busyUs is not a wait: wakeBy leaves it alone.
    s.runFor(sim::Tick(1e6));
    s.a9().wakeBy(s.now());
    s.run();

    EXPECT_TRUE(s.a9().finished());
    ASSERT_EQ(results.size(), 2u);
    EXPECT_FALSE(results[0]);
    EXPECT_FALSE(results[1]);
    ASSERT_EQ(wokeAt.size(), 3u);
    EXPECT_EQ(wokeAt[0], sim::Tick(300e6));
    EXPECT_EQ(wokeAt[1], sim::Tick(500e6));
    EXPECT_EQ(wokeAt[2], sim::Tick(510e6));
}

TEST(HostA9, StaleDeadlineTimerDoesNotDoubleResume)
{
    soc::Soc s;

    // The message beats the deadline. Had the deadline stayed
    // armed, it would fire while the host is inside an unrelated
    // blocking recv() and resume it with an empty mailbox (recv
    // returns garbage) or resume a running fiber.
    s.start(0, [&](core::DpCore &c) {
        s.mbc().send(c, s.mbc().a9Box(), 1); // immediate
        c.sleepCycles(800'000);              // ~1 ms
        s.mbc().send(c, s.mbc().a9Box(), 2);
    });

    std::vector<std::uint64_t> seen;
    s.a9().start([&](soc::HostA9 &host) {
        std::uint64_t msg;
        // Deadline far beyond the second send.
        ASSERT_TRUE(host.recvUntil(sim::Tick(500e6), msg));
        seen.push_back(msg);
        seen.push_back(host.recv());
    });

    s.run();
    EXPECT_TRUE(s.a9().finished());
    ASSERT_EQ(seen.size(), 2u);
    EXPECT_EQ(seen[0], 1u);
    EXPECT_EQ(seen[1], 2u);
}

TEST(HostA9, BusyUsIsNotCutShortByMessages)
{
    soc::Soc s;

    s.start(0, [&](core::DpCore &c) {
        s.mbc().send(c, s.mbc().a9Box(), 5); // lands mid-busy
    });

    sim::Tick woke_at = 0;
    std::uint64_t got = 0;
    s.a9().start([&](soc::HostA9 &host) {
        host.busyUs(50.0);
        woke_at = host.now();
        got = host.recv();
    });

    s.run();
    EXPECT_TRUE(s.a9().finished());
    EXPECT_EQ(woke_at, sim::Tick(50e6));
    EXPECT_EQ(got, 5u);
}

TEST(HostA9, AllCoresToHostExactlyOnce)
{
    // MBC stress: all 32 dpCores fire salvos at the A9 mailbox with
    // staggered timing. Every message must arrive exactly once.
    soc::Soc s;
    const unsigned n_cores = 32, per_core = 8;

    for (unsigned id = 0; id < n_cores; ++id) {
        s.start(id, [&, id](core::DpCore &c) {
            for (unsigned k = 0; k < per_core; ++k) {
                // Prime-stride stagger: bursts collide at some
                // ticks and spread at others.
                c.sleepCycles(1 + (id * 7 + k * 13) % 97);
                s.mbc().send(c, s.mbc().a9Box(),
                             (std::uint64_t(id) << 32) | k);
            }
        });
    }

    std::vector<unsigned> counts(n_cores * per_core, 0);
    s.a9().start([&](soc::HostA9 &host) {
        for (unsigned i = 0; i < n_cores * per_core; ++i) {
            std::uint64_t msg = host.recv();
            unsigned core = unsigned(msg >> 32);
            unsigned seq = unsigned(msg & 0xffffffffu);
            ASSERT_LT(core, n_cores);
            ASSERT_LT(seq, per_core);
            ++counts[core * per_core + seq];
        }
        // Mailbox must now be empty: no duplicated deliveries.
        std::uint64_t extra;
        EXPECT_FALSE(host.recvUntil(host.now(), extra));
    });

    s.run();
    EXPECT_TRUE(s.allFinished());
    EXPECT_TRUE(s.a9().finished());
    for (unsigned i = 0; i < counts.size(); ++i)
        EXPECT_EQ(counts[i], 1u) << "message " << i;
}

TEST(HostA9, RecvUntilDeadlineTiedWithDeliveryTimesOutFirst)
{
    soc::Soc s;

    // Worker timing: sleep 6 + send 4 + MBC latency 30 cycles puts
    // the delivery at tick 50000 — exactly the host's deadline. The
    // deadline timer was scheduled first (at t=0), so same-tick
    // FIFO fires it before the delivery: the bounded wait reports a
    // timeout, and the message is receivable in the same tick.
    s.start(0, [&](core::DpCore &c) {
        c.sleepCycles(6);
        s.mbc().send(c, s.mbc().a9Box(), 77);
    });

    bool timed_out = false;
    sim::Tick woke_at = 0, got_at = 0;
    std::uint64_t got = 0;
    s.a9().start([&](soc::HostA9 &host) {
        std::uint64_t msg;
        timed_out = !host.recvUntil(50'000, msg);
        woke_at = host.now();
        got = host.recv();
        got_at = host.now();
    });

    s.run();
    EXPECT_TRUE(s.a9().finished());
    EXPECT_TRUE(timed_out);
    EXPECT_EQ(woke_at, 50'000u);
    EXPECT_EQ(got, 77u);
    EXPECT_EQ(got_at, 50'000u)
        << "the tied delivery must be receivable in the same tick";
}

TEST(HostA9, StaleDeadlineDoesNotCutLaterBoundedWaitShort)
{
    soc::Soc s;

    // The first bounded wait is satisfied long before its 1 ms
    // deadline. The second bounded wait's own deadline is 3 ms; a
    // first deadline left armed would end it two milliseconds
    // early.
    s.start(0, [&](core::DpCore &c) {
        s.mbc().send(c, s.mbc().a9Box(), 1);
    });

    bool first = false, second = true;
    sim::Tick woke_at = 0;
    s.a9().start([&](soc::HostA9 &host) {
        std::uint64_t msg;
        first = host.recvUntil(sim::Tick(1e9), msg);
        second = host.recvUntil(sim::Tick(3e9), msg);
        woke_at = host.now();
    });

    s.run();
    EXPECT_TRUE(s.a9().finished());
    EXPECT_TRUE(first);
    EXPECT_FALSE(second);
    EXPECT_EQ(woke_at, sim::Tick(3e9))
        << "the second wait must run to its own deadline";
}

TEST(HostA9, BackToBackBoundedWaitsTimeOutAtExactDeadlines)
{
    soc::Soc s;

    // Reply lands at (800 + 4 + 30) cycles = tick 1042500, past all
    // four staggered deadlines: each wait must time out at exactly
    // its own deadline, and the fifth wait sees the delivery.
    s.start(0, [&](core::DpCore &c) {
        c.sleepCycles(800);
        s.mbc().send(c, s.mbc().a9Box(), 5);
    });

    std::vector<sim::Tick> wokeAt;
    bool delivered = false;
    std::uint64_t got = 0;
    s.a9().start([&](soc::HostA9 &host) {
        std::uint64_t msg;
        for (unsigned i = 1; i <= 4; ++i) {
            EXPECT_FALSE(host.recvUntil(sim::Tick(i) * 200'000,
                                        msg));
            wokeAt.push_back(host.now());
        }
        delivered = host.recvUntil(sim::Tick(1e12), msg);
        got = msg;
    });

    s.run();
    EXPECT_TRUE(s.a9().finished());
    ASSERT_EQ(wokeAt.size(), 4u);
    for (unsigned i = 0; i < 4; ++i)
        EXPECT_EQ(wokeAt[i], sim::Tick(i + 1) * 200'000);
    EXPECT_TRUE(delivered);
    EXPECT_EQ(got, 5u);
}
