/**
 * @file
 * ATE tests (Section 2.3, Figure 2): hardware RPC semantics and
 * atomicity, near/far latencies, split-phase overlap, software
 * RPCs, and the synchronization primitives built on top (mutex,
 * barrier, work-stealing counter), plus the dpu_serialized
 * flush/invalidate choreography that makes shared structures work
 * without hardware coherence.
 */

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "rt/serialized.hh"
#include "rt/sync.hh"
#include "soc/soc.hh"

using namespace dpu;

TEST(Ate, RemoteLoadStoreOnDmem)
{
    soc::Soc s;
    s.core(7).dmem().store<std::uint64_t>(128, 0xabcdull);

    std::uint64_t got = 0;
    s.start(0, [&](core::DpCore &c) {
        got = s.ate().remoteLoad(c, 7, mem::dmemAddr(7, 128), 8);
        s.ate().remoteStore(c, 7, mem::dmemAddr(7, 136), 0x1111, 8);
    });
    s.run();
    EXPECT_EQ(got, 0xabcdull);
    EXPECT_EQ(s.core(7).dmem().load<std::uint64_t>(136), 0x1111ull);
}

TEST(Ate, RemoteOpsOnDdrGoThroughOwnersCache)
{
    soc::Soc s;
    s.start(0, [&](core::DpCore &c) {
        s.ate().remoteStore(c, 5, 0x4000, 99, 8);
    });
    s.run();
    // The store is dirty in core 5's L1, NOT in DDR: single-owner
    // coherence, the whole point of pinning structures to a core.
    EXPECT_TRUE(s.core(5).l1d().isDirty(0x4000));
    EXPECT_EQ(s.memory().store().load<std::uint64_t>(0x4000), 0u);

    // Another core reading the same address via the SAME owner
    // observes the value.
    std::uint64_t got = 0;
    s.start(1, [&](core::DpCore &c) {
        got = s.ate().remoteLoad(c, 5, 0x4000, 8);
    });
    s.run();
    EXPECT_EQ(got, 99u);
}

TEST(Ate, FetchAddCountsExactlyFromAllCores)
{
    soc::Soc s;
    const unsigned owner = 3;
    s.core(owner).dmem().store<std::uint64_t>(0, 0);
    for (unsigned id = 0; id < 32; ++id) {
        s.start(id, [&](core::DpCore &c) {
            for (int i = 0; i < 50; ++i)
                s.ate().fetchAdd(c, owner, mem::dmemAddr(owner, 0),
                                 1, 8);
        });
    }
    s.run();
    ASSERT_TRUE(s.allFinished());
    EXPECT_EQ(s.core(owner).dmem().load<std::uint64_t>(0),
              32u * 50u);
}

TEST(Ate, CompareSwapSucceedsExactlyOnce)
{
    soc::Soc s;
    const unsigned owner = 0;
    s.core(owner).dmem().store<std::uint64_t>(64, 0);
    int winners = 0;
    for (unsigned id = 0; id < 8; ++id) {
        s.start(id, [&, id](core::DpCore &c) {
            std::uint64_t old = s.ate().compareSwap(
                c, owner, mem::dmemAddr(owner, 64), 0, id + 1, 8);
            if (old == 0)
                ++winners;
        });
    }
    s.run();
    EXPECT_EQ(winners, 1);
}

TEST(Ate, FarRpcIsSlowerThanNearRpc)
{
    // Figure 2's core shape: inter-macro requests take longer than
    // intra-macro ones.
    auto time_rpc = [](unsigned target) {
        soc::Soc s;
        sim::Tick dt = 0;
        s.start(0, [&](core::DpCore &c) {
            sim::Tick t0 = c.now();
            s.ate().remoteLoad(c, target, mem::dmemAddr(target, 0),
                               8);
            dt = c.now() - t0;
        });
        s.run();
        return dt;
    };
    sim::Tick near = time_rpc(1);   // same macro (cores 0-7)
    sim::Tick far = time_rpc(31);   // macro 3
    EXPECT_GT(far, near);
    // Both are tens of cycles, not thousands (hardware, no IRQ).
    EXPECT_LT(far, sim::dpCoreClock.cyclesToTicks(200));
    EXPECT_GT(near, sim::dpCoreClock.cyclesToTicks(10));
}

TEST(Ate, SoftwareRpcCostsMoreThanHardwareRpc)
{
    soc::Soc s;
    sim::Tick hw = 0, sw = 0;
    s.start(5, [&](core::DpCore &) {
        // Keep the remote core alive but idle (blocked).
        bool never = false;
        s.core(5).blockUntil([&] { return never; });
    });
    s.start(0, [&](core::DpCore &c) {
        sim::Tick t0 = c.now();
        s.ate().remoteLoad(c, 5, mem::dmemAddr(5, 0), 8);
        hw = c.now() - t0;
        t0 = c.now();
        s.ate().swRpc(c, 5, [](core::DpCore &) {});
        sw = c.now() - t0;
        s.core(5).wake(c.now()); // unblock... via interrupt below
    });
    s.run();
    EXPECT_GT(sw, hw * 2);
}

TEST(Ate, SplitPhaseOverlapsComputeWithRpc)
{
    soc::Soc s;
    sim::Tick blocking = 0, overlapped = 0;
    s.start(0, [&](core::DpCore &c) {
        // Blocking: RPC then compute.
        sim::Tick t0 = c.now();
        s.ate().remoteLoad(c, 31, mem::dmemAddr(31, 0), 8);
        c.sleepCycles(60);
        blocking = c.now() - t0;

        // Split-phase: issue, compute the same 60 cycles, wait.
        t0 = c.now();
        s.ate().issue(c, 31, ate::AteOp::Load, mem::dmemAddr(31, 0));
        c.sleepCycles(60);
        s.ate().waitResponse(c);
        overlapped = c.now() - t0;
    });
    s.run();
    EXPECT_LT(overlapped, blocking);
}

TEST(Ate, FifoOrderingBetweenPairs)
{
    // Two stores from the same source to the same remote word must
    // land in order: the second value wins.
    soc::Soc s;
    s.start(0, [&](core::DpCore &c) {
        s.ate().remoteStore(c, 9, mem::dmemAddr(9, 0), 1, 8);
        s.ate().remoteStore(c, 9, mem::dmemAddr(9, 0), 2, 8);
    });
    s.run();
    EXPECT_EQ(s.core(9).dmem().load<std::uint64_t>(0), 2u);
}

TEST(Ate, SwRpcRunsOnRemoteCore)
{
    soc::Soc s;
    unsigned ran_on = 999;
    // The target core must be alive to take the interrupt.
    bool done = false;
    s.start(12, [&](core::DpCore &c) {
        c.blockUntil([&] { return done; });
    });
    s.start(0, [&](core::DpCore &c) {
        s.ate().swRpc(c, 12, [&](core::DpCore &rc) {
            ran_on = rc.id();
        });
        done = true;
        s.core(12).wake(c.now());
    });
    s.run();
    EXPECT_EQ(ran_on, 12u);
    EXPECT_TRUE(s.allFinished());
}

TEST(Ate, MutexGivesMutualExclusion)
{
    soc::Soc s;
    rt::AteMutex mtx(0, 0);
    // A non-atomic shared counter in core 0's DMEM at offset 8,
    // updated with plain remote load+store inside the lock: only
    // mutual exclusion makes the count exact.
    s.core(0).dmem().store<std::uint64_t>(8, 0);
    for (unsigned id = 0; id < 16; ++id) {
        s.start(id, [&](core::DpCore &c) {
            for (int i = 0; i < 10; ++i) {
                mtx.lock(c, s.ate());
                std::uint64_t v = s.ate().remoteLoad(
                    c, 0, mem::dmemAddr(0, 8), 8);
                c.cycles(20); // widen the race window
                s.ate().remoteStore(c, 0, mem::dmemAddr(0, 8), v + 1,
                                    8);
                mtx.unlock(c, s.ate());
            }
        });
    }
    s.run();
    ASSERT_TRUE(s.allFinished());
    EXPECT_EQ(s.core(0).dmem().load<std::uint64_t>(8), 160u);
}

TEST(Ate, BarrierSeparatesPhases)
{
    soc::Soc s;
    rt::AteBarrier bar(0, 32, 8);
    std::vector<int> phase1_done(8, 0);
    bool violated = false;
    for (unsigned id = 0; id < 8; ++id) {
        s.start(id, [&, id](core::DpCore &c) {
            c.sleepCycles(100 * (id + 1)); // stagger arrivals
            phase1_done[id] = 1;
            bar.arrive(c, s.ate());
            for (int other = 0; other < 8; ++other)
                if (!phase1_done[std::size_t(other)])
                    violated = true;
        });
    }
    s.run();
    ASSERT_TRUE(s.allFinished());
    EXPECT_FALSE(violated);
}

TEST(Ate, WorkStealingCounterClaimsAllChunksOnce)
{
    soc::Soc s;
    s.core(4).dmem().store<std::uint64_t>(16, 0);
    rt::AteCounter counter(4, 16);
    const std::uint64_t n_chunks = 500;
    std::vector<int> claims(n_chunks, 0);
    for (unsigned id = 0; id < 32; ++id) {
        s.start(id, [&](core::DpCore &c) {
            while (true) {
                std::uint64_t i = counter.next(c, s.ate());
                if (i >= n_chunks)
                    break;
                ++claims[i];
                c.sleepCycles(50 + (i % 7) * 10);
            }
        });
    }
    s.run();
    ASSERT_TRUE(s.allFinished());
    for (std::uint64_t i = 0; i < n_chunks; ++i)
        EXPECT_EQ(claims[i], 1) << "chunk " << i;
}

TEST(Ate, DpuSerializedFixesStaleness)
{
    soc::Soc s;
    const mem::Addr shared = 0x8000;
    const unsigned owner = 2;

    // Without coherence: caller writes, owner reads stale 0.
    std::uint64_t stale = 1, fresh = 0;
    bool owner_alive = true;
    s.start(owner, [&](core::DpCore &c) {
        c.blockUntil([&] { return !owner_alive; });
    });
    s.start(0, [&](core::DpCore &c) {
        // Prime the owner's cache with the old value (via an RPC
        // load through its hierarchy).
        (void)s.ate().remoteLoad(c, owner, shared, 8);
        c.store<std::uint64_t>(shared, 42); // dirty in OUR cache

        // Naive RPC without visitors: remote sees stale data.
        s.ate().swRpc(c, owner, [&](core::DpCore &rc) {
            stale = rc.load<std::uint64_t>(shared);
        });

        // dpu_serialized with an args visitor: flush + invalidate.
        rt::dpuSerialized(
            c, s.ate(), owner,
            [&](core::DpCore &rc) {
                fresh = rc.load<std::uint64_t>(shared);
            },
            {{shared, 8}});
        owner_alive = false;
        s.core(owner).wake(c.now());
    });
    s.run();
    ASSERT_TRUE(s.allFinished());
    EXPECT_EQ(stale, 0u);
    EXPECT_EQ(fresh, 42u);
}

// ----------------------------------------------------------------
// Fault recovery: dropped requests, bounded waits, retry wrapper.
// ----------------------------------------------------------------

#include "sim/fault.hh"

TEST(Ate, DroppedRequestIsRetriedAndAppliedExactlyOnce)
{
    sim::faultPlane().reset();
    // Lose exactly the first RPC request (before the remote op
    // executes, so the retry cannot double-apply).
    sim::faultPlane().configure("ate.drop@nth=1,max=1", 5);

    soc::Soc s;
    s.start(0, [&](core::DpCore &c) {
        rt::AteRetryPolicy pol;
        pol.timeout = sim::Tick(1e6); // 1 us
        pol.maxRetries = 2;
        rt::ReliableAte ra(s.ate(), pol);

        auto old = ra.fetchAdd(c, 7, mem::dmemAddr(7, 64), 5);
        ASSERT_TRUE(old.has_value());
        EXPECT_EQ(*old, 0u);
        EXPECT_EQ(ra.retries(), 1u);
        EXPECT_EQ(ra.failures(), 0u);

        auto now = ra.load(c, 7, mem::dmemAddr(7, 64));
        ASSERT_TRUE(now.has_value());
        EXPECT_EQ(*now, 5u) << "the add must land exactly once";
    });
    s.run();
    sim::faultPlane().reset();
    EXPECT_TRUE(s.allFinished());
}

TEST(Ate, ExhaustedRetriesFailCleanlyWithoutHanging)
{
    sim::faultPlane().reset();
    sim::faultPlane().configure("ate.drop@p=1", 5); // fabric is dead

    soc::Soc s;
    s.start(0, [&](core::DpCore &c) {
        rt::AteRetryPolicy pol;
        pol.timeout = sim::Tick(1e6);
        pol.maxRetries = 2;
        rt::ReliableAte ra(s.ate(), pol);

        auto v = ra.load(c, 7, mem::dmemAddr(7, 64));
        EXPECT_FALSE(v.has_value());
        EXPECT_EQ(ra.retries(), 3u); // 1 + maxRetries issues
        EXPECT_EQ(ra.failures(), 1u);
    });
    s.run(); // must drain: a dead fabric fails ops, not the sim
    sim::faultPlane().reset();
    EXPECT_TRUE(s.allFinished());
}

TEST(Ate, BoundedWaitEndsOnTheResponseNotTheDeadline)
{
    sim::faultPlane().reset(); // plane inert: every request lands
    // The second run's core goes on to block in mbc().recv until a
    // host message at 2 ms, past its answered wait's 1 ms deadline.
    for (const bool then_recv : {false, true}) {
        soc::Soc s;
        std::optional<std::uint64_t> v;
        sim::Tick doneAt = 0;
        std::uint64_t got = 0;
        s.start(0, [&](core::DpCore &c) {
            rt::AteRetryPolicy pol;
            pol.timeout = sim::Tick(1e9); // 1 ms
            rt::ReliableAte ra(s.ate(), pol);
            v = ra.load(c, 7, mem::dmemAddr(7, 64));
            doneAt = c.now();
            EXPECT_EQ(ra.retries(), 0u);
            if (then_recv)
                got = s.mbc().recv(c);
        });
        if (then_recv)
            s.eventQueue().schedule(sim::Tick(2e9), [&s] {
                s.mbc().sendFromHost(0, 7);
            });
        s.run();

        EXPECT_TRUE(s.allFinished());
        ASSERT_TRUE(v.has_value());
        EXPECT_EQ(*v, 0u);
        EXPECT_LT(doneAt, sim::Tick(1e9)) << "response, not deadline";
        if (!then_recv) {
            EXPECT_LT(s.now(), sim::Tick(1e9))
                << "the run ends at its last work, not the deadline";
        } else {
            EXPECT_EQ(got, 7u);
            EXPECT_EQ(s.core(0).statGroup().get("blocks"), 2u)
                << "one block per wait: the met deadline must not "
                   "wake the later recv";
        }
    }
}

TEST(Ate, DelayedResponseAfterAbandonIsDiscardedAsStale)
{
    sim::faultPlane().reset();
    // Delay the first request's delivery by 4 us. The delay
    // charges the (src,dst) link, so the first retry queues behind
    // it and also times out; the second retry (backed-off timeout
    // now 4 us) completes. Both late responses must be dropped as
    // stale instead of corrupting the retried operation's slot.
    sim::faultPlane().configure("ate.delay@nth=1,max=1,mag=4000000",
                                5);

    soc::Soc s;
    s.start(0, [&](core::DpCore &c) {
        rt::AteRetryPolicy pol;
        pol.timeout = sim::Tick(1e6);
        pol.maxRetries = 2;
        rt::ReliableAte ra(s.ate(), pol);

        auto v = ra.load(c, 7, mem::dmemAddr(7, 96));
        ASSERT_TRUE(v.has_value());
        EXPECT_EQ(ra.retries(), 2u);

        // Park long enough for the delayed original to come back.
        c.sleepCycles(8000);
        auto again = ra.load(c, 7, mem::dmemAddr(7, 96));
        ASSERT_TRUE(again.has_value());
        EXPECT_EQ(*again, *v);
    });
    s.run();
    EXPECT_EQ(s.ate().statGroup().get("staleResponses"), 2u);
    sim::faultPlane().reset();
    EXPECT_TRUE(s.allFinished());
}
