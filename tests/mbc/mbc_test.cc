/**
 * @file
 * MailBox Controller tests (Section 2.4): lightweight pointer
 * passing between dpCores, the A9 endpoint, FIFO order, and the
 * wake-on-delivery interrupt behaviour.
 */

#include <gtest/gtest.h>

#include <vector>

#include "soc/soc.hh"

using namespace dpu;

TEST(Mbc, CoreToCoreMessage)
{
    soc::Soc s;
    std::uint64_t got = 0;
    s.start(1, [&](core::DpCore &c) { got = s.mbc().recv(c); });
    s.start(0, [&](core::DpCore &c) {
        s.mbc().send(c, 1, 0xdeadbeefcafef00dull);
    });
    s.run();
    ASSERT_TRUE(s.allFinished());
    EXPECT_EQ(got, 0xdeadbeefcafef00dull);
}

TEST(Mbc, MessagesArriveInOrder)
{
    soc::Soc s;
    std::vector<std::uint64_t> got;
    s.start(2, [&](core::DpCore &c) {
        for (int i = 0; i < 10; ++i)
            got.push_back(s.mbc().recv(c));
    });
    s.start(0, [&](core::DpCore &c) {
        for (std::uint64_t i = 0; i < 10; ++i)
            s.mbc().send(c, 2, 100 + i);
    });
    s.run();
    ASSERT_TRUE(s.allFinished());
    for (std::uint64_t i = 0; i < 10; ++i)
        EXPECT_EQ(got[i], 100 + i);
}

TEST(Mbc, ReceiverBlocksUntilDelivery)
{
    soc::Soc s;
    sim::Tick recv_at = 0;
    s.start(3, [&](core::DpCore &c) {
        (void)s.mbc().recv(c);
        recv_at = c.now();
    });
    s.start(0, [&](core::DpCore &c) {
        c.sleepCycles(5000);
        s.mbc().send(c, 3, 7);
    });
    s.run();
    EXPECT_GE(recv_at, sim::dpCoreClock.cyclesToTicks(5000));
}

TEST(Mbc, A9MailboxWithHandler)
{
    // The A9 dispatch model: a dpCore posts a completion pointer to
    // the A9 mailbox; the "driver" handler picks it up.
    soc::Soc s;
    std::uint64_t a9_got = 0;
    s.mbc().onMessage(s.mbc().a9Box(), [&] {
        std::uint64_t msg;
        ASSERT_TRUE(s.mbc().tryRecv(s.mbc().a9Box(), msg));
        a9_got = msg;
    });
    s.start(0, [&](core::DpCore &c) {
        s.mbc().send(c, s.mbc().a9Box(), 0x1234);
    });
    s.run();
    EXPECT_EQ(a9_got, 0x1234u);
}

TEST(Mbc, HostCanSeedWorkToCores)
{
    // The A9 offload pattern: the host sends each core a pointer to
    // its work descriptor in DRAM.
    soc::Soc s;
    std::vector<std::uint64_t> work(32, 0);
    for (unsigned id = 0; id < 32; ++id) {
        s.start(id, [&, id](core::DpCore &c) {
            work[id] = s.mbc().recv(c);
        });
    }
    for (unsigned id = 0; id < 32; ++id)
        s.mbc().sendFromHost(id, 0x1000 + id * 64);
    s.run();
    ASSERT_TRUE(s.allFinished());
    for (unsigned id = 0; id < 32; ++id)
        EXPECT_EQ(work[id], 0x1000 + id * 64);
}

TEST(Mbc, MailboxCountMatchesPaper)
{
    soc::Soc s;
    // 34 mailboxes on the 40 nm die: 32 dpCores + A9 + M0.
    EXPECT_EQ(s.mbc().nBoxes(), 34u);
    EXPECT_EQ(s.mbc().a9Box(), mbc::a9Mailbox);
    EXPECT_EQ(s.mbc().m0Box(), mbc::m0Mailbox);
}
