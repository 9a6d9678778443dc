/**
 * @file
 * Coverage for the remaining Table 1 descriptor operations: RID-list
 * gather (RLE mode), DMS->DDR dumps of the internal CRC/CID
 * memories, DMS->DMS internal moves, EventCtl control descriptors,
 * the event file's edge-triggered callbacks, the redundant-flush
 * detector from the Section 4 tooling story, and the DMEM range
 * checks of the DMAC's stream, gather and scatter paths.
 */

#include <gtest/gtest.h>

#include <vector>

#include "rt/dms_ctl.hh"
#include "soc/soc.hh"
#include "util/crc32.hh"

using namespace dpu;
using rt::DmsCtl;

TEST(DmsOps, RidListGatherFetchesExactRows)
{
    soc::Soc s;
    for (std::uint32_t i = 0; i < 4096; ++i)
        s.memory().store().store<std::uint32_t>(0x10000 + i * 4,
                                                i * 7);

    // Ascending, partly consecutive row ids (consecutive ids merge
    // into one run).
    std::vector<std::uint32_t> rids = {3,  4,  5,  100, 101,
                                       512, 513, 514, 515, 4000};
    std::vector<std::uint32_t> got(rids.size());
    s.start(0, [&](core::DpCore &c) {
        DmsCtl ctl(c, s.dms());
        c.dmem().write(8192, rids.data(), rids.size() * 4);
        dms::Descriptor bv;
        bv.type = dms::DescType::DmemToDms;
        bv.rle = true;
        bv.rows = std::uint32_t(rids.size());
        bv.ibank = 2;
        bv.dmemAddr = 8192;
        bv.notifyEvent = 1;
        ctl.push(ctl.setup(bv));
        ctl.wfe(1);
        ctl.clearEvent(1);

        dms::Descriptor g;
        g.type = dms::DescType::DdrToDmem;
        g.gatherSrc = true;
        g.rle = true;
        g.ibank = 2;
        g.rows = std::uint32_t(rids.size());
        g.colWidth = 4;
        g.ddrAddr = 0x10000;
        g.dmemAddr = 0;
        g.notifyEvent = 2;
        ctl.push(ctl.setup(g));
        ctl.wfe(2);
        c.dmem().read(0, got.data(), got.size() * 4);
    });
    s.run();
    ASSERT_TRUE(s.allFinished());
    for (std::size_t i = 0; i < rids.size(); ++i)
        EXPECT_EQ(got[i], rids[i] * 7) << "rid " << rids[i];
}

TEST(DmsOps, CrcMemoryDumpsToDdr)
{
    // Partition-pipeline hash results can be materialized to DRAM
    // (Table 1: "Store hash/CID memory to DDR").
    soc::Soc s;
    const std::uint32_t rows = 128;
    for (std::uint32_t r = 0; r < rows; ++r)
        s.memory().store().store<std::uint32_t>(0x20000 + r * 4,
                                                r * 31 + 5);

    s.start(0, [&](core::DpCore &c) {
        DmsCtl ctl(c, s.dms());
        dms::Descriptor load;
        load.type = dms::DescType::DdrToDms;
        load.rows = rows;
        load.colWidth = 4;
        load.nCols = 1;
        load.colStride = rows * 4;
        load.ddrAddr = 0x20000;
        load.ibank = 0;
        ctl.push(ctl.setup(load));

        dms::Descriptor hash;
        hash.type = dms::DescType::HashCol;
        hash.rows = rows;
        hash.colWidth = 4;
        hash.nCols = 1;
        hash.ibank = 0;
        hash.ibank2 = 0;
        hash.cidBank = 0;
        ctl.push(ctl.setup(hash));

        dms::Descriptor dump;
        dump.type = dms::DescType::DmsToDdr;
        dump.imem = dms::IMem::Crc;
        dump.ibank = 0;
        dump.rows = rows;
        dump.colWidth = 4;
        dump.ddrAddr = 0x40000;
        dump.notifyEvent = 3;
        ctl.push(ctl.setup(dump));
        ctl.wfe(3);

        dms::Descriptor cid;
        cid.type = dms::DescType::DmsToDdr;
        cid.imem = dms::IMem::Cid;
        cid.ibank = 0;
        cid.rows = rows;
        cid.colWidth = 1;
        cid.ddrAddr = 0x50000;
        cid.notifyEvent = 4;
        ctl.push(ctl.setup(cid));
        ctl.wfe(4);
    });
    s.run();
    ASSERT_TRUE(s.allFinished());

    for (std::uint32_t r = 0; r < rows; ++r) {
        std::uint32_t key = r * 31 + 5;
        std::uint32_t h = util::crc32(&key, 4);
        EXPECT_EQ(s.memory().store().load<std::uint32_t>(0x40000 +
                                                         r * 4),
                  h) << "row " << r;
        EXPECT_EQ(s.memory().store().load<std::uint8_t>(0x50000 + r),
                  h & 31) << "row " << r;
    }
}

TEST(DmsOps, InternalMoveCopiesBetweenBanks)
{
    soc::Soc s;
    s.start(0, [&](core::DpCore &c) {
        DmsCtl ctl(c, s.dms());
        // Load 64 words into CMEM bank 1 from DDR.
        for (std::uint32_t i = 0; i < 64; ++i)
            s.memory().store().store<std::uint32_t>(0x60000 + i * 4,
                                                    0xA0 + i);
        dms::Descriptor load;
        load.type = dms::DescType::DdrToDms;
        load.rows = 64;
        load.colWidth = 4;
        load.nCols = 1;
        load.colStride = 256;
        load.ddrAddr = 0x60000;
        load.ibank = 1;
        ctl.push(ctl.setup(load));

        // CMEM bank 1 -> BV bank 3 (256 bytes).
        dms::Descriptor mv;
        mv.type = dms::DescType::DmsToDms;
        mv.imem = dms::IMem::Cmem;
        mv.ibank = 1;
        mv.imem2 = dms::IMem::Bv;
        mv.ibank2 = 3;
        mv.rows = 256;
        mv.notifyEvent = 5;
        ctl.push(ctl.setup(mv));
        ctl.wfe(5);
    });
    s.run();
    ASSERT_TRUE(s.allFinished());
    const std::uint8_t *bv = s.dms().dmac().bvBank(3);
    for (std::uint32_t i = 0; i < 64; ++i) {
        std::uint32_t v;
        std::memcpy(&v, bv + i * 4, 4);
        EXPECT_EQ(v, 0xA0 + i);
    }
}

TEST(DmsOps, EventCtlDescriptorsSetClearAndGate)
{
    soc::Soc s;
    sim::Tick gated_at = 0, second_set_at = 0, wait_set_at = 0;
    s.start(0, [&](core::DpCore &c) {
        DmsCtl ctl(c, s.dms());
        // Set events 5 and 6 from the descriptor stream.
        dms::Descriptor set;
        set.type = dms::DescType::EventCtl;
        set.eventOp = dms::EventOp::Set;
        set.eventMask = (1u << 5) | (1u << 6);
        ctl.push(ctl.setup(set));
        ctl.wfe(5);
        ctl.wfe(6);

        // A WaitClear gate parks the channel until the core clears
        // event 5; the transfer behind it must not run early.
        dms::Descriptor gate;
        gate.type = dms::DescType::EventCtl;
        gate.eventOp = dms::EventOp::WaitClear;
        gate.eventMask = 1u << 5;
        ctl.push(ctl.setup(gate));
        ctl.ddrToDmem().rows(64).width(4).from(0x100).to(0).event(7)
            .noAutoInc().push(0);

        c.sleepCycles(4000);
        EXPECT_FALSE(ctl.eventSet(7)); // still gated
        ctl.clearEvent(5);
        ctl.wfe(7);
        gated_at = c.now();
        ctl.clearEvent(6);
        ctl.clearEvent(7);

        // A WaitSet gate parks channel 0 until events 5 and 6 are
        // both set; Set descriptors on channel 1 set them one at a
        // time, and the transfer behind the gate waits for the
        // second.
        dms::Descriptor waitSet;
        waitSet.type = dms::DescType::EventCtl;
        waitSet.eventOp = dms::EventOp::WaitSet;
        waitSet.eventMask = (1u << 5) | (1u << 6);
        ctl.push(ctl.setup(waitSet));
        ctl.ddrToDmem().rows(64).width(4).from(0x100).to(0).event(8)
            .noAutoInc().push(0);
        for (const unsigned ev : {5u, 6u}) {
            c.sleepCycles(4000);
            EXPECT_FALSE(ctl.eventSet(8)) << "gated before event " << ev;
            dms::Descriptor one;
            one.type = dms::DescType::EventCtl;
            one.eventOp = dms::EventOp::Set;
            one.eventMask = 1u << ev;
            second_set_at = c.now();
            ctl.push(ctl.setup(one), 1);
            ctl.wfe(ev);
        }
        ctl.wfe(8);
        wait_set_at = c.now();
    });
    s.run();
    ASSERT_TRUE(s.allFinished());
    EXPECT_GT(gated_at, sim::dpCoreClock.cyclesToTicks(4000));
    EXPECT_GT(wait_set_at, second_set_at);
}

TEST(DmsOps, EventFileEdgeCallbacksFireOnce)
{
    dms::EventFile ef;
    int sets = 0, clears = 0;
    ef.whenSet(3, [&] { ++sets; });
    ef.whenClear(3, [&] { ++clears; });
    ef.set(3);
    ef.set(3); // already set: no edge
    EXPECT_EQ(sets, 1);
    EXPECT_EQ(clears, 0);
    ef.clear(3);
    ef.clear(3);
    EXPECT_EQ(clears, 1);
    // Callbacks are one-shot.
    ef.set(3);
    EXPECT_EQ(sets, 1);
}

TEST(DmsOps, RedundantFlushDetectorCountsNoOpFlushes)
{
    soc::Soc s;
    s.start(0, [&](core::DpCore &c) {
        c.store<std::uint32_t>(0x7000, 1);
        c.cacheFlush(0x7000, 4);  // real work
        c.cacheFlush(0x7000, 4);  // redundant: already clean
        c.cacheFlush(0x9000, 64); // redundant: never written
    });
    s.run();
    EXPECT_EQ(s.core(0).statGroup().get("cacheFlushes"), 3u);
    EXPECT_EQ(s.core(0).statGroup().get("redundantFlushes"), 2u);
}

TEST(DmsOpsDeathTest, DmemSidePastTheScratchpadDies)
{
    // The DMAC moves DMEM bytes through Dmem::raw(), and the bytes
    // past one core's DMEM are the next SRAM of the chip (soc::Soc
    // carves them all from one region), so every path refuses a
    // transfer that runs off the end before it touches a byte:
    // stream and gather in, stream and scatter out.
    const auto past = [](dms::DescType type, bool masked) {
        dms::Descriptor d;
        d.type = type;
        d.gatherSrc = masked && type == dms::DescType::DdrToDmem;
        d.scatterDst = masked && type == dms::DescType::DmemToDdr;
        d.rle = masked;
        d.rows = 32;
        d.colWidth = 4;
        d.ddrAddr = 0x10000;
        d.dmemAddr = std::uint16_t(mem::dmemBytes - 64); // 64 B over
        d.notifyEvent = 1;
        soc::Soc s;
        s.start(0, [&](core::DpCore &c) {
            DmsCtl ctl(c, s.dms());
            ctl.push(ctl.setup(d));
            ctl.wfe(1);
        });
        s.run();
    };
    EXPECT_DEATH(past(dms::DescType::DdrToDmem, false),
                 "DDR->DMEM overflows DMEM");
    EXPECT_DEATH(past(dms::DescType::DdrToDmem, true),
                 "DDR->DMEM overflows DMEM");
    EXPECT_DEATH(past(dms::DescType::DmemToDdr, false),
                 "DMEM->DDR overflows DMEM");
    EXPECT_DEATH(past(dms::DescType::DmemToDdr, true),
                 "DMEM->DDR overflows DMEM");
}
