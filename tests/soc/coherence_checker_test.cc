/**
 * @file
 * Coherence-checker tests (the Section 4 debugging tool): stale
 * reads and conflicting writes across cores are flagged; the
 * sanctioned idioms — dpu_serialized RPCs through an owner core and
 * explicit flush/invalidate pairs — run clean.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "rt/dms_ctl.hh"
#include "rt/serialized.hh"
#include "sim/trace.hh"
#include "soc/coherence_checker.hh"
#include "soc/soc.hh"

using namespace dpu;

TEST(CoherenceChecker, FlagsStaleReadAcrossCores)
{
    soc::Soc s;
    soc::CoherenceChecker checker(s);

    bool writer_done = false;
    s.start(0, [&](core::DpCore &c) {
        c.store<std::uint32_t>(0x4000, 42); // dirty in core 0's L1
        writer_done = true;
        s.core(1).wake(c.now());
    });
    s.start(1, [&](core::DpCore &c) {
        c.blockUntil([&] { return writer_done; });
        (void)c.load<std::uint32_t>(0x4000); // stale read!
    });
    s.run();
    ASSERT_TRUE(s.allFinished());
    ASSERT_GE(checker.staleReads(), 1u);
    const auto &v = checker.violations().back();
    EXPECT_EQ(v.line, 0x4000u);
    EXPECT_EQ(v.accessor, 1u);
    EXPECT_EQ(v.dirtyOwner, 0u);
}

TEST(CoherenceChecker, FlagsConflictingWrites)
{
    soc::Soc s;
    soc::CoherenceChecker checker(s);

    bool first_done = false;
    s.start(2, [&](core::DpCore &c) {
        c.store<std::uint32_t>(0x8000, 1);
        first_done = true;
        s.core(3).wake(c.now());
    });
    s.start(3, [&](core::DpCore &c) {
        c.blockUntil([&] { return first_done; });
        c.store<std::uint32_t>(0x8004, 2); // same line, both dirty
    });
    s.run();
    ASSERT_TRUE(s.allFinished());
    EXPECT_GE(checker.conflictingWrites(), 1u);
}

TEST(CoherenceChecker, FlushInvalidatePairRunsClean)
{
    soc::Soc s;
    soc::CoherenceChecker checker(s);

    bool flushed = false;
    s.start(0, [&](core::DpCore &c) {
        c.store<std::uint32_t>(0x4000, 42);
        c.cacheFlush(0x4000, 4); // through L1 + L2 to DDR
        flushed = true;
        s.core(1).wake(c.now());
    });
    s.start(1, [&](core::DpCore &c) {
        c.blockUntil([&] { return flushed; });
        c.cacheInvalidate(0x4000, 4);
        EXPECT_EQ(c.load<std::uint32_t>(0x4000), 42u);
    });
    s.run();
    ASSERT_TRUE(s.allFinished());
    EXPECT_EQ(checker.violations().size(), 0u);
}

TEST(CoherenceChecker, OwnerPinnedAteAccessIsExempt)
{
    // The paper's idiom: pin the structure to one owner; every
    // manipulation goes through ATE RPCs in the owner's pipeline.
    soc::Soc s;
    soc::CoherenceChecker checker(s);

    const mem::Addr shared = 0xA000;
    const unsigned owner = 4;
    bool idle = false;
    s.start(owner, [&](core::DpCore &c) {
        c.blockUntil([&] { return idle; });
    });
    s.start(0, [&](core::DpCore &c) {
        s.ate().remoteStore(c, owner, shared, 5, 8);
        EXPECT_EQ(s.ate().remoteLoad(c, owner, shared, 8), 5u);
        s.ate().fetchAdd(c, owner, shared, 2, 8);
        EXPECT_EQ(s.ate().remoteLoad(c, owner, shared, 8), 7u);
        idle = true;
        s.core(owner).wake(c.now());
    });
    s.run();
    ASSERT_TRUE(s.allFinished());
    EXPECT_EQ(checker.violations().size(), 0u);
}

TEST(CoherenceChecker, FlagsStaleDmsReadAndTracesIt)
{
    // The DMS bypasses the caches: a remote DMEM->DDR descriptor
    // overwrites a line core 1 still holds in L1, and core 1 then
    // re-reads it without invalidating. The checker must flag the
    // hazard AND emit a trace instant for it.
    sim::tracer().arm(1u << 14);

    soc::Soc s;
    soc::CoherenceChecker checker(s);

    const mem::Addr shared = 0x6000; // line-aligned DDR address
    s.memory().store().store<std::uint32_t>(shared, 1);

    bool dms_done = false;
    s.start(1, [&](core::DpCore &c) {
        EXPECT_EQ(c.load<std::uint32_t>(shared), 1u); // caches line
        c.blockUntil([&] { return dms_done; });
        // Stale: DDR now holds 2, but the cached copy still reads 1.
        EXPECT_EQ(c.load<std::uint32_t>(shared), 1u);
    });
    s.start(0, [&](core::DpCore &c) {
        rt::DmsCtl ctl(c, s.dms());
        c.dmem().store<std::uint32_t>(0, 2);
        ctl.dmemToDdr().rows(1).width(4).from(0).to(shared).event(0)
            .noAutoInc().push(0);
        ctl.wfe(0);
        ctl.clearEvent(0);
        dms_done = true;
        s.core(1).wake(c.now());
    });
    s.run();
    ASSERT_TRUE(s.allFinished());
    EXPECT_EQ(s.memory().store().load<std::uint32_t>(shared), 2u);

    ASSERT_EQ(checker.staleDmsReads(), 1u);
    const auto &v = checker.violations().back();
    EXPECT_TRUE(v.viaDms);
    EXPECT_EQ(v.line, shared);
    EXPECT_EQ(v.accessor, 1u);
    EXPECT_FALSE(v.accessWasWrite);

    std::ostringstream os;
    sim::tracer().exportJson(os);
    sim::tracer().disarm();
    sim::tracer().clear();
    EXPECT_NE(os.str().find("\"name\":\"staleDmsRead\""),
              std::string::npos)
        << "hazard did not show up in the trace";
}

TEST(CoherenceChecker, InvalidateAfterDmsWriteRunsClean)
{
    // The sanctioned pattern: invalidate before re-reading a line
    // the DMS rewrote. The refetch observes fresh data and must not
    // be flagged.
    soc::Soc s;
    soc::CoherenceChecker checker(s);

    const mem::Addr shared = 0x7000;
    s.memory().store().store<std::uint32_t>(shared, 1);

    bool dms_done = false;
    s.start(1, [&](core::DpCore &c) {
        EXPECT_EQ(c.load<std::uint32_t>(shared), 1u);
        c.blockUntil([&] { return dms_done; });
        c.cacheInvalidate(shared, 4);
        EXPECT_EQ(c.load<std::uint32_t>(shared), 2u);
    });
    s.start(0, [&](core::DpCore &c) {
        rt::DmsCtl ctl(c, s.dms());
        c.dmem().store<std::uint32_t>(0, 2);
        ctl.dmemToDdr().rows(1).width(4).from(0).to(shared).event(0)
            .noAutoInc().push(0);
        ctl.wfe(0);
        ctl.clearEvent(0);
        dms_done = true;
        s.core(1).wake(c.now());
    });
    s.run();
    ASSERT_TRUE(s.allFinished());
    EXPECT_EQ(checker.staleDmsReads(), 0u);
    EXPECT_EQ(checker.violations().size(), 0u);
}

TEST(CoherenceChecker, DpuSerializedRunsClean)
{
    soc::Soc s;
    soc::CoherenceChecker checker(s);

    const mem::Addr arg = 0xC000;
    const unsigned owner = 6;
    bool stop = false;
    std::uint64_t seen = 0;
    s.start(owner, [&](core::DpCore &c) {
        c.blockUntil([&] { return stop; });
    });
    s.start(0, [&](core::DpCore &c) {
        c.store<std::uint64_t>(arg, 99);
        rt::dpuSerialized(
            c, s.ate(), owner,
            [&](core::DpCore &rc) {
                seen = rc.load<std::uint64_t>(arg);
                rc.store<std::uint64_t>(arg + 8, seen + 1);
            },
            {{arg, 8}}, {{arg + 8, 8}});
        EXPECT_EQ(c.load<std::uint64_t>(arg + 8), 100u);
        stop = true;
        s.core(owner).wake(c.now());
    });
    s.run();
    ASSERT_TRUE(s.allFinished());
    EXPECT_EQ(seen, 99u);
    EXPECT_EQ(checker.violations().size(), 0u);
}
