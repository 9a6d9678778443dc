/**
 * @file
 * The paper's Listing 1, nearly verbatim: 16 MB of contiguous data
 * streamed from DRAM through a 32 KB DMEM with exactly THREE
 * descriptors (two 1 KB ping-pong buffers + one loop descriptor,
 * 8191 iterations, 16384 total buffers), consuming each buffer with
 * wfe / clear_event. Verifies the checksum, the descriptor count,
 * and that the stream runs near DDR line speed (Section 3.1: "16MB
 * of data can be streamed through a DMEM of 32KB at line speeds
 * with just three DMS descriptors").
 */

#include <gtest/gtest.h>

#include "rt/dms_ctl.hh"
#include "soc/soc.hh"

using namespace dpu;

TEST(Listing1, SixteenMegabytesThreeDescriptors)
{
    soc::Soc s;

    const mem::Addr src_addr = 0;
    const std::uint32_t total = 16 << 20;
    std::uint64_t expect = 0;
    for (std::uint32_t i = 0; i < total / 4; ++i) {
        std::uint32_t v = i * 0x9e3779b9u;
        s.memory().store().store<std::uint32_t>(src_addr + i * 4, v);
        expect += v;
    }

    std::uint64_t sum = 0;
    std::uint32_t count = 0;
    s.start(0, [&](core::DpCore &c) {
        rt::DmsCtl ctl(c, s.dms());
        const std::uint16_t dest_addr = 0;

        // dms_descriptor* desc0 = dms_setup_ddr_to_dmem(256,
        //     src_addr, dest_addr, event0);
        auto desc0 = ctl.ddrToDmem().rows(256).width(4)
                         .from(src_addr).to(dest_addr)
                         .event(0).setup();
        // dms_descriptor* desc1 = dms_setup_ddr_to_dmem(256,
        //     src_addr, dest_addr + 1024, event1);
        auto desc1 = ctl.ddrToDmem().rows(256).width(4)
                         .from(src_addr).to(dest_addr + 1024)
                         .event(1).setup();
        // dms_descriptor* loop = dms_setup_loop(desc0, 8191);
        auto loop = ctl.setupLoop(desc0, 8191);

        ctl.push(desc0);
        ctl.push(desc1);
        ctl.push(loop);

        unsigned events[] = {0, 1};
        unsigned buffer_index = 0;
        count = 0;
        do {
            ctl.wfe(events[buffer_index]);
            // consume_rows();
            std::uint32_t base = buffer_index ? 1024u : 0u;
            for (std::uint32_t i = 0; i < 256; ++i)
                sum += c.dmem().load<std::uint32_t>(base + i * 4);
            c.dualIssue(256, 256);
            ctl.clearEvent(events[buffer_index]);
            buffer_index = 1 - buffer_index; // toggle index
        } while (++count != 16384);
    });

    sim::Tick t = s.run();
    ASSERT_TRUE(s.allFinished());
    EXPECT_EQ(sum, expect);
    EXPECT_EQ(count, 16384u);

    // Exactly three descriptors drove 16 MB.
    EXPECT_EQ(s.dms().dmac().statGroup().get("bytesToDmem"),
              std::uint64_t(total));

    // "at line speeds": the DMS side runs at line rate; observed
    // throughput is bounded by the consuming core's 4 B/cycle loop
    // (3.2 GB/s at 800 MHz), which it should approach closely.
    double gbs = double(total) / (double(t) * 1e-12) / 1e9;
    EXPECT_GT(gbs, 2.8);
    EXPECT_LT(gbs, 3.3);
}

TEST(Listing1, EventProtocolPreventsOverrun)
{
    // A deliberately slow consumer must never observe torn data:
    // the DMS may not refill a buffer whose event is still set.
    soc::Soc s;

    const std::uint32_t total_words = 64 * 1024;
    for (std::uint32_t i = 0; i < total_words; ++i)
        s.memory().store().store<std::uint32_t>(i * 4, i);

    bool torn = false;
    s.start(0, [&](core::DpCore &c) {
        rt::DmsCtl ctl(c, s.dms());
        // dms_setup_ddr_to_dmem(256, 0, 0, event0)
        auto d0 = ctl.ddrToDmem().rows(256).width(4).from(0).to(0)
                      .event(0).setup();
        // dms_setup_ddr_to_dmem(256, 0, 1024, event1)
        auto d1 = ctl.ddrToDmem().rows(256).width(4).from(0).to(1024)
                      .event(1).setup();
        auto loop = ctl.setupLoop(d0, 127);
        ctl.push(d0);
        ctl.push(d1);
        ctl.push(loop);

        std::uint32_t next = 0;
        unsigned buf = 0;
        for (std::uint32_t b = 0; b < 256; ++b) {
            ctl.wfe(buf);
            c.sleepCycles(3000); // dawdle while holding the buffer
            std::uint32_t base = buf ? 1024u : 0u;
            for (std::uint32_t i = 0; i < 256; ++i) {
                if (c.dmem().load<std::uint32_t>(base + i * 4) !=
                    next + i)
                    torn = true;
            }
            next += 256;
            ctl.clearEvent(buf);
            buf = 1 - buf;
        }
    });
    s.run();
    ASSERT_TRUE(s.allFinished());
    EXPECT_FALSE(torn);
}

// The transfer builder refuses each malformed descriptor before it
// is encoded, naming what is wrong.
class DmsXferDeathTest : public ::testing::Test
{
  protected:
    soc::Soc s;
    rt::DmsCtl ctl{s.core(0), s.dms()};
};

TEST_F(DmsXferDeathTest, MissingFromOrToDies)
{
    EXPECT_DEATH(ctl.ddrToDmem().rows(256).width(4).from(0).descriptor(),
                 "needs both from");
    EXPECT_DEATH(ctl.dmemToDdr().rows(256).width(4).to(0).descriptor(),
                 "needs both from");
}

TEST_F(DmsXferDeathTest, RowsBeyondTheSixteenBitFieldDie)
{
    EXPECT_DEATH(
        ctl.ddrToDmem().rows(0x10000).width(1).from(0).to(0).descriptor(),
        "rows 65536 out of the 16-bit field");
}

TEST_F(DmsXferDeathTest, WidthOtherThanOneTwoFourOrEightDies)
{
    EXPECT_DEATH(
        ctl.ddrToDmem().rows(16).width(3).from(0).to(0).descriptor(),
        "width 3 not 1/2/4/8");
}

TEST_F(DmsXferDeathTest, TransposedFromAndToOverrunDmem)
{
    // The DMEM offset went to from() and the DDR address to to().
    EXPECT_DEATH(
        ctl.ddrToDmem().rows(256).width(4).from(0).to(0x100000)
            .descriptor(),
        "overruns the 32 KB scratchpad");
}
