/**
 * @file
 * dpCore model tests: lazy-clock cycle accounting, the dual-issue
 * and branch-predictor cost model, the analytics ISA extensions
 * (functional results + cycle costs) and FILT's DMEM range checks,
 * DMEM vs cached-DDR routing, interrupts, blocking, and watchpoints.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "core/dp_core.hh"
#include "mem/cache.hh"
#include "mem/main_memory.hh"
#include "sim/rng.hh"
#include "sim/zero_pages.hh"
#include "util/crc32.hh"

using namespace dpu;
using core::DpCore;

namespace {

const mem::CacheParams l2Params{256 * 1024, 8, 6};

struct CoreFixture : ::testing::Test
{
    CoreFixture()
        : mm(mem::ddr3_1600, 4 << 20),
          l2(l2Stats, nullptr, l2Params, mm,
             sram.carve(mem::Cache::sramBytes(l2Params))),
          core0(makeCore(0)), core1(makeCore(1))
    {
    }

    /** Core @p id on a fresh slice of the fixture's SRAM, as a chip
     *  builds its cores. */
    std::unique_ptr<DpCore>
    makeCore(unsigned id)
    {
        return std::make_unique<DpCore>(
            id, eq, l2, sram.carve(DpCore::sramBytes()));
    }

    /** Run a kernel on core0 to completion; return elapsed ticks. */
    sim::Tick
    runOn0(core::Kernel k)
    {
        sim::Tick start = eq.now();
        core0->start(std::move(k));
        eq.run();
        EXPECT_TRUE(core0->finished());
        return eq.now() - start;
    }

    sim::EventQueue eq;
    mem::MainMemory mm;
    /** The shared L2 and up to four cores (two tests build core0
     *  again). */
    sim::ZeroPages sram{
        sim::ZeroPages::pageRound(mem::Cache::sramBytes(l2Params)) +
        4 * DpCore::sramBytes()};
    sim::StatGroup l2Stats{"l2"};
    mem::Cache l2;
    std::unique_ptr<DpCore> core0, core1;
};

} // namespace

TEST_F(CoreFixture, CycleChargingAdvancesTime)
{
    sim::Tick t = runOn0([](DpCore &c) { c.cycles(1000); });
    EXPECT_EQ(t, sim::dpCoreClock.cyclesToTicks(1000));
}

TEST_F(CoreFixture, DualIssuePairsAluAndLsu)
{
    // 100 ALU ops co-issued with 100 LSU ops = 100 cycles, not 200.
    sim::Tick t = runOn0([](DpCore &c) { c.dualIssue(100, 100); });
    EXPECT_EQ(t, sim::dpCoreClock.cyclesToTicks(100));
}

TEST_F(CoreFixture, BranchPredictorBackwardTaken)
{
    // A taken backward branch (loop) is predicted: 1 cycle.
    sim::Tick loop = runOn0([](DpCore &c) { c.branch(true, true); });
    // A taken FORWARD branch is mispredicted: 1 + penalty.
    core0 = makeCore(0);
    sim::Tick fwd = runOn0([](DpCore &c) { c.branch(true, false); });
    EXPECT_GT(fwd, loop);
    EXPECT_EQ(fwd - loop,
              sim::dpCoreClock.cyclesToTicks(core::branchMissCycles));
}

TEST_F(CoreFixture, MultiplierIsVariableLatency)
{
    // A 64-bit multiply stalls longer than an 8-bit one (Section 5.4:
    // "variable latency multiplier").
    EXPECT_GT(core::mulCycles(64), core::mulCycles(8));
    sim::Tick t8 = runOn0([](DpCore &c) { c.mul(8); });
    core0 = makeCore(0);
    sim::Tick t64 = runOn0([](DpCore &c) { c.mul(64); });
    EXPECT_GT(t64, t8);
}

TEST_F(CoreFixture, NtzIsCheaperThanNlz)
{
    // Section 5.4: NTZ = 4 cycles via popcount, NLZ = 13 cycles.
    unsigned ntz = 0, nlz = 0;
    runOn0([&](DpCore &c) {
        ntz = c.ntz(0b1000);
        nlz = c.nlz(0b1000);
    });
    EXPECT_EQ(ntz, 3u);
    EXPECT_EQ(nlz, 60u);
    EXPECT_EQ(core0->statGroup().get("ntzOps"), 1u);
    EXPECT_LT(core::ntzCycles, core::nlzCycles);
}

TEST_F(CoreFixture, CrcHashMatchesUtil)
{
    std::uint32_t h = 0;
    runOn0([&](DpCore &c) { h = c.crcHash(1234); });
    EXPECT_EQ(h, util::crc32Key(1234));
}

TEST_F(CoreFixture, FiltProducesExactBitvector)
{
    std::uint64_t passed = 0;
    runOn0([&](DpCore &c) {
        // 100 x 4 B values 0..99 at DMEM offset 0.
        for (std::uint32_t i = 0; i < 100; ++i)
            c.dmem().store<std::uint32_t>(i * 4, i);
        passed = c.filt(0, 100, 4, 10, 19, 1024);
    });
    EXPECT_EQ(passed, 10u);
    // Bits 10..19 set, everything else clear.
    for (std::uint32_t i = 0; i < 100; ++i) {
        bool bit = (core0->dmem().load<std::uint8_t>(1024 + i / 8) >>
                    (i % 8)) & 1;
        EXPECT_EQ(bit, i >= 10 && i <= 19) << "row " << i;
    }
}

TEST_F(CoreFixture, FiltMatchesAnElementAtATimeScan)
{
    // A test-local replica of FILT's semantics: read one element,
    // and store each group of eight bits as a byte once its last
    // element is read. Covers every width, counts off a multiple of
    // eight, and bit vectors that overlap the elements, behind the
    // scan or ahead of it, where a stored byte is read back as a
    // later element.
    struct Case
    {
        unsigned width;
        std::uint32_t n, src, bv;
    };
    const Case cases[] = {
        {1, 1, 0, 4096},   {1, 77, 3, 4096},  {2, 64, 0, 4096},
        {2, 13, 6, 4096},  {4, 100, 0, 1024}, {8, 17, 16, 4096},
        {4, 0, 0, 4096},
        // Bit vector inside the first element group, behind the scan.
        {4, 33, 8, 9},
        // Bit vector ahead of the scan: its bytes are later elements.
        {1, 200, 100, 110}, {1, 2048, 0, 1024}, {2, 1024, 0, 1024},
        {4, 512, 0, 1024},  {8, 512, 0, 2048},
    };
    sim::Rng rng{0xf117};
    for (const Case &k : cases) {
        std::vector<std::uint8_t> image(mem::Dmem::size);
        for (auto &b : image)
            b = std::uint8_t(rng.below(256));
        const std::uint64_t lo = 40, hi = 1ull << (8 * k.width - 1);

        std::vector<std::uint8_t> want = image;
        std::uint64_t want_passed = 0;
        std::uint8_t cur = 0;
        for (std::uint32_t i = 0; i < k.n; ++i) {
            std::uint64_t v = 0;
            std::memcpy(&v, want.data() + k.src + i * k.width, k.width);
            const bool hit = v >= lo && v <= hi;
            want_passed += hit;
            cur |= std::uint8_t(hit) << (i % 8);
            if (i % 8 == 7 || i + 1 == k.n) {
                want[k.bv + i / 8] = cur;
                cur = 0;
            }
        }

        std::uint64_t passed = 0;
        runOn0([&](DpCore &c) {
            c.dmem().write(0, image.data(), image.size());
            passed = c.filt(k.src, k.n, k.width, lo, hi, k.bv);
        });
        std::vector<std::uint8_t> got(mem::Dmem::size);
        core0->dmem().read(0, got.data(), got.size());
        EXPECT_EQ(passed, want_passed) << k.width << " x " << k.n;
        EXPECT_EQ(got, want) << k.width << " x " << k.n;
    }
}

TEST_F(CoreFixture, FiltRateNearPaperCyclesPerTuple)
{
    // The compute loop runs at ~1.66 cycles/tuple so the end-to-end
    // filter matches the paper's 482 Mtuples/s (Section 5.3).
    const std::uint32_t n = 4096;
    sim::Tick t = runOn0([&](DpCore &c) {
        c.filt(0, n, 4, 0, 0, 20000);
    });
    double cpt = double(sim::dpCoreClock.ticksToCycles(t)) / n;
    EXPECT_GT(cpt, 1.4);
    EXPECT_LT(cpt, 1.8);
}

using CoreDeathTest = CoreFixture;

TEST_F(CoreDeathTest, FiltPastTheScratchpadDies)
{
    // FILT reads its elements and writes its bit vector through
    // Dmem::raw(), and the next bytes past a DMEM are another SRAM
    // of the chip: both ranges are checked before a byte moves.
    EXPECT_DEATH(runOn0([](DpCore &c) {
                     c.filt(mem::dmemBytes - 64, 32, 4, 0, 0, 0);
                 }),
                 "FILT elements out of DMEM");
    EXPECT_DEATH(runOn0([](DpCore &c) {
                     c.filt(0, 64, 4, 0, 0, mem::dmemBytes - 4);
                 }),
                 "FILT bit vector out of DMEM");
}

TEST_F(CoreFixture, DmemAccessRoundTrips)
{
    std::uint64_t out = 0;
    runOn0([&](DpCore &c) {
        c.store<std::uint64_t>(c.dmemBase() + 256, 0xfeedface);
        out = c.load<std::uint64_t>(c.dmemBase() + 256);
    });
    EXPECT_EQ(out, 0xfeedfaceull);
    EXPECT_EQ(core0->dmem().load<std::uint64_t>(256), 0xfeedfaceull);
}

TEST_F(CoreFixture, DdrAccessGoesThroughCache)
{
    mm.store().store<std::uint32_t>(0x1000, 77);
    std::uint32_t v = 0;
    runOn0([&](DpCore &c) { v = c.load<std::uint32_t>(0x1000); });
    EXPECT_EQ(v, 77u);
    EXPECT_TRUE(core0->l1d().contains(0x1000));
}

TEST_F(CoreFixture, CachedLoadIsFasterSecondTime)
{
    sim::Tick t = runOn0([&](DpCore &c) {
        sim::Tick t0 = c.now();
        (void)c.load<std::uint32_t>(0x2000);
        sim::Tick t1 = c.now();
        (void)c.load<std::uint32_t>(0x2000);
        sim::Tick t2 = c.now();
        EXPECT_GT(t1 - t0, (t2 - t1) * 10);
    });
    (void)t;
}

TEST_F(CoreFixture, FlushMakesDataVisibleToDms)
{
    runOn0([&](DpCore &c) {
        c.store<std::uint32_t>(0x3000, 5);
        EXPECT_EQ(mm.store().load<std::uint32_t>(0x3000), 0u);
        c.cacheFlush(0x3000, 4);
        EXPECT_EQ(mm.store().load<std::uint32_t>(0x3000), 5u);
    });
}

TEST_F(CoreFixture, InterruptsDeliveredToBlockedCore)
{
    bool isr_ran = false;
    bool woke = false;
    core0->start([&](DpCore &c) {
        c.blockUntil([&] { return isr_ran; });
        woke = true;
    });
    // Post the interrupt after 1 us of simulated time.
    eq.schedule(1'000'000, [&] {
        core0->postInterrupt([&](DpCore &) { isr_ran = true; });
    });
    eq.run();
    EXPECT_TRUE(isr_ran);
    EXPECT_TRUE(woke);
    EXPECT_EQ(core0->statGroup().get("interruptsTaken"), 1u);
}

TEST_F(CoreFixture, InterruptChargesOverhead)
{
    core0->start([&](DpCore &c) {
        c.postInterrupt([](DpCore &) {});
        c.sync();
    });
    eq.run();
    EXPECT_GE(sim::dpCoreClock.ticksToCycles(eq.now()),
              core::interruptCycles);
}

TEST_F(CoreFixture, TwoCoresInterleaveInTime)
{
    std::vector<int> order;
    core0->start([&](DpCore &c) {
        c.sleepCycles(100);
        order.push_back(0);
        c.sleepCycles(200);
        order.push_back(2);
    });
    core1->start([&](DpCore &c) {
        c.sleepCycles(150);
        order.push_back(1);
        c.sleepCycles(400);
        order.push_back(3);
    });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST_F(CoreFixture, WatchpointFiresOnWrite)
{
    int hits = 0;
    runOn0([&](DpCore &c) {
        c.addWatchpoint(0x5000, 64, [&](mem::Addr, bool write) {
            if (write)
                ++hits;
        });
        c.store<std::uint32_t>(0x5000, 1);  // hit
        c.store<std::uint32_t>(0x5040, 1);  // outside
        (void)c.load<std::uint32_t>(0x5000); // read, not counted
    });
    EXPECT_EQ(hits, 1);
}

TEST_F(CoreFixture, BlockedCoreWakesOnCondition)
{
    bool flag = false;
    sim::Tick woke_at = 0;
    core0->start([&](DpCore &c) {
        c.blockUntil([&] { return flag; });
        woke_at = c.now();
    });
    eq.schedule(5'000'000, [&] {
        flag = true;
        core0->wake(eq.now());
    });
    eq.run();
    EXPECT_EQ(woke_at, 5'000'000u);
}

TEST_F(CoreFixture, InterruptPostedWhileBlockedIsTakenAtTheFirstCharge)
{
    // Every tick below was read from the model before a charge
    // tested one sync threshold instead of the quantum and the ISR
    // queue; a pending interrupt must still be taken at the same
    // charge.
    std::vector<std::pair<char, sim::Tick>> taken;
    bool a_ran = false, b_ran = false;
    sim::Tick resumed = 0, done = 0;
    const auto isr = [&](char name, bool *ran, sim::Cycles work) {
        return [&taken, name, ran, work](DpCore &rc) {
            taken.emplace_back(name, rc.now());
            if (ran)
                *ran = true;
            rc.cycles(work);
        };
    };
    core0->start([&](DpCore &c) {
        c.cycles(50);
        // A: posted by an event while the core is blocked.
        c.blockUntil([&] { return a_ran; });
        resumed = c.now();
        c.cycles(30);
        // B: posted by core 1's running fiber while this core is
        // blocked again.
        c.blockUntil([&] { return b_ran; });
        // C: posted by the core itself; the next charge takes it.
        c.postInterrupt(isr('C', nullptr, 20));
        c.cycles(7);
        c.cycles(1000);
        done = c.now();
    });
    core1->start([&](DpCore &c) {
        c.sleepCycles(2000);
        core0->postInterrupt(isr('B', &b_ran, 40));
        c.cycles(5);
    });
    eq.schedule(1'000'000, [&] {
        core0->postInterrupt(isr('A', &a_ran, 100));
    });
    eq.run();
    ASSERT_TRUE(core0->finished());
    // A and B enter at their wake plus the 60-cycle entry charge;
    // C at the 7-cycle charge right after its post, not at the
    // kernel's closing sync 1,000 cycles later.
    const std::vector<std::pair<char, sim::Tick>> want{
        {'A', 1'075'000}, {'B', 2'575'000}, {'C', 2'708'750}};
    EXPECT_EQ(taken, want);
    EXPECT_EQ(resumed, 1'200'000u);
    EXPECT_EQ(done, 3'983'750u);
    EXPECT_EQ(eq.now(), 3'983'750u);
    EXPECT_EQ(core0->statGroup().get("interruptsTaken"), 3u);
}
