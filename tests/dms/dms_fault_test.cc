/**
 * @file
 * DMS-side recovery paths under the fault plane: a wedged DMAC turns
 * an unbounded hang into a bounded wfeFor() timeout; an injected
 * descriptor error completes with error status (no data moved) that
 * the waiter can observe, clear, and retry past; and the bounded
 * wait is a drop-in for wfe() on the happy path.
 */

#include <gtest/gtest.h>

#include "rt/dms_ctl.hh"
#include "sim/fault.hh"
#include "soc/soc.hh"

using namespace dpu;
using rt::DmsCtl;
using WfeResult = dms::Dms::WfeResult;

namespace {

struct PlaneGuard
{
    PlaneGuard() { sim::faultPlane().reset(); }
    ~PlaneGuard() { sim::faultPlane().reset(); }
};

void
fillWords(soc::Soc &s, mem::Addr base, std::uint32_t n)
{
    for (std::uint32_t i = 0; i < n; ++i)
        s.memory().store().store<std::uint32_t>(base + i * 4,
                                                i * 2654435761u);
}

} // namespace

TEST(DmsFault, WedgedDmacTurnsIntoBoundedTimeout)
{
    PlaneGuard g;
    sim::faultPlane().configure("dms.wedge@nth=1,max=1", 11);

    soc::Soc s;
    fillWords(s, 0x10000, 256);

    WfeResult res = WfeResult::Ok;
    s.start(0, [&](core::DpCore &c) {
        DmsCtl ctl(c, s.dms());
        ctl.ddrToDmem()
            .rows(256)
            .width(4)
            .from(0x10000)
            .to(0)
            .event(0)
            .push(0);
        res = ctl.wfeFor(0, sim::Tick(500'000));
        // The wedge swallowed the completion: no data arrived.
        EXPECT_EQ(c.dmem().load<std::uint32_t>(0), 0u);
        EXPECT_FALSE(ctl.eventError(0));
    });
    s.run();

    EXPECT_TRUE(s.allFinished()) << "bounded wait must not hang";
    EXPECT_EQ(res, WfeResult::Timeout);
    EXPECT_TRUE(s.dmsFor(0).dmac().hung());
    ASSERT_NE(sim::faultPlane().statGroup(), nullptr);
    EXPECT_EQ(sim::faultPlane().injected(sim::FaultSite::DmsWedge),
              1u);
}

TEST(DmsFault, DescErrorCompletesCleanAndRetrySucceeds)
{
    PlaneGuard g;
    // Budget of one: the first descriptor errors, the retry is clean.
    sim::faultPlane().configure("dms.descError@p=1,max=1", 11);

    soc::Soc s;
    fillWords(s, 0x10000, 256);

    WfeResult first = WfeResult::Ok;
    WfeResult second = WfeResult::Timeout;
    s.start(0, [&](core::DpCore &c) {
        DmsCtl ctl(c, s.dms());
        auto push = [&] {
            ctl.ddrToDmem()
                .rows(256)
                .width(4)
                .from(0x10000)
                .to(0)
                .event(0)
                .push(0);
        };

        push();
        first = ctl.wfeFor(0, sim::Tick(1e9));
        EXPECT_TRUE(ctl.eventError(0));
        // Error completion moved no data.
        EXPECT_EQ(c.dmem().load<std::uint32_t>(4), 0u);
        ctl.clearEvent(0);
        EXPECT_FALSE(ctl.eventError(0));

        push();
        second = ctl.wfeFor(0, sim::Tick(1e9));
        EXPECT_FALSE(ctl.eventError(0));
        for (std::uint32_t i = 0; i < 256; ++i)
            EXPECT_EQ(c.dmem().load<std::uint32_t>(i * 4),
                      i * 2654435761u);
        ctl.clearEvent(0);
    });
    s.run();

    EXPECT_TRUE(s.allFinished());
    EXPECT_EQ(first, WfeResult::Error);
    EXPECT_EQ(second, WfeResult::Ok);
    EXPECT_FALSE(s.dmsFor(0).dmac().hung());
}

TEST(DmsFault, BoundedWaitMatchesWfeOnHappyPath)
{
    PlaneGuard g; // plane inert: wfeFor is a drop-in for wfe
    // The second run's core goes on to block in mbc().recv until a
    // host message at 2 ms, past its met wait's 1 ms deadline.
    for (const bool then_recv : {false, true}) {
        soc::Soc s;
        fillWords(s, 0x10000, 512);

        WfeResult res = WfeResult::Timeout;
        sim::Tick doneAt = 0;
        std::uint64_t got = 0;
        s.start(0, [&](core::DpCore &c) {
            DmsCtl ctl(c, s.dms());
            ctl.ddrToDmem()
                .rows(512)
                .width(4)
                .from(0x10000)
                .to(0)
                .event(2)
                .push(0);
            res = ctl.wfeFor(2, sim::Tick(1e9));
            doneAt = c.now();
            for (std::uint32_t i = 0; i < 512; ++i)
                EXPECT_EQ(c.dmem().load<std::uint32_t>(i * 4),
                          i * 2654435761u);
            ctl.clearEvent(2);
            if (then_recv)
                got = s.mbc().recv(c);
        });
        if (then_recv)
            s.eventQueue().schedule(sim::Tick(2e9), [&s] {
                s.mbc().sendFromHost(0, 7);
            });
        s.run();

        EXPECT_EQ(res, WfeResult::Ok);
        EXPECT_TRUE(s.allFinished());
        // The core woke on completion, long before its 1 ms
        // deadline.
        EXPECT_LT(doneAt, sim::Tick(1e9)) << "completion, not deadline";
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

TEST(DmsFault, TimedOutWaitsWakerDoesNotEndALaterWait)
{
    PlaneGuard g; // plane inert: the descriptor completes, just late
    soc::Soc s;
    fillWords(s, 0x10000, 512);

    WfeResult res = WfeResult::Ok;
    std::uint64_t got = 0;
    s.start(0, [&](core::DpCore &c) {
        DmsCtl ctl(c, s.dms());
        ctl.ddrToDmem()
            .rows(512)
            .width(4)
            .from(0x10000)
            .to(0)
            .event(2)
            .push(0);
        // Far too short for 2 KiB: the wait times out while its
        // waker is still registered on event 2.
        res = ctl.wfeFor(2, sim::Tick(1000));
        got = s.mbc().recv(c);
    });
    s.eventQueue().schedule(sim::Tick(2e9),
                            [&s] { s.mbc().sendFromHost(0, 7); });
    s.run();

    EXPECT_EQ(res, WfeResult::Timeout);
    EXPECT_EQ(got, 7u);
    EXPECT_TRUE(s.allFinished());
    EXPECT_EQ(s.core(0).statGroup().get("blocks"), 2u)
        << "the descriptor's late completion must not wake the core "
           "out of its later recv";
}
