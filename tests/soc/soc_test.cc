/**
 * @file
 * SoC assembly tests: the 40 nm and 16 nm configurations, the DDR
 * window, kernel scheduling across all cores, stats plumbing, and
 * cross-complex isolation at 16 nm.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "soc/soc.hh"

using namespace dpu;

TEST(Soc, FortyNmMatchesPaperGeometry)
{
    soc::Soc s;
    EXPECT_EQ(s.nCores(), 32u);
    EXPECT_STREQ(s.params().ddr.name, "DDR3-1600");
    EXPECT_DOUBLE_EQ(s.params().provisionedWatts, 6.0);
    // The DDR image spans the whole window below the DMEM apertures.
    EXPECT_EQ(s.memory().store().size(), mem::dmemBase);
}

TEST(SocDeathTest, DdrOverlappingTheDmemAperturesDies)
{
    // DpCore and the ATE send every address from mem::dmemBase up to
    // a DMEM aperture, so a larger DDR image would give one address
    // two memories.
    soc::SocParams p = soc::dpu40nm();
    p.ddrBytes = mem::dmemBase + (1 << 20);
    EXPECT_DEATH(soc::Soc{p}, "DMEM apertures");
}

TEST(Soc, SixteenNmShrink)
{
    soc::Soc s(soc::dpu16nm());
    // Section 2.5: 160 dpCores in five 32-core complexes, 76 GB/s.
    EXPECT_EQ(s.nCores(), 160u);
    EXPECT_EQ(s.params().nComplexes, 5u);
    EXPECT_GT(s.params().ddr.peakBytesPerSec(), 70e9);
    EXPECT_DOUBLE_EQ(s.params().provisionedWatts, 12.0);
}

TEST(Soc, StartAllRunsTheSameImageEverywhere)
{
    soc::Soc s;
    std::vector<int> ran(32, 0);
    s.startAll([&](core::DpCore &c) {
        ran[c.id()] = 1;
        c.cycles(10 * (c.id() + 1));
    });
    s.run();
    EXPECT_TRUE(s.allFinished());
    for (int r : ran)
        EXPECT_EQ(r, 1);
}

TEST(Soc, RunForLimitsSimulatedTime)
{
    soc::Soc s;
    s.start(0, [](core::DpCore &c) {
        for (int i = 0; i < 1000; ++i)
            c.sleepCycles(100000);
    });
    s.runFor(1'000'000); // 1 us
    EXPECT_FALSE(s.allFinished());
    EXPECT_LE(s.now(), 2'000'000u);
}

TEST(Soc, StatsDumpContainsAllGroups)
{
    soc::Soc s;
    s.start(0, [](core::DpCore &c) {
        c.alu(100);
        (void)c.load<std::uint64_t>(0x1000); // touch DDR
    });
    s.run();
    std::ostringstream os;
    s.dumpStats(os);
    std::string out = os.str();
    EXPECT_NE(out.find("core0.aluOps = 100"), std::string::npos);
    EXPECT_NE(out.find("ddr.bytesRead"), std::string::npos);
}

TEST(Soc, SixteenNmComplexesHaveIndependentDmsAndAte)
{
    soc::Soc s(soc::dpu16nm());
    // Core 40 belongs to complex 1.
    EXPECT_EQ(&s.dmsFor(40), &s.dms(1));
    EXPECT_EQ(&s.ateFor(40), &s.ate(1));
    EXPECT_NE(&s.dms(0), &s.dms(1));

    // An ATE fetch-add inside complex 1 works with global ids.
    s.core(33).dmem().store<std::uint64_t>(0, 0);
    s.start(40, [&](core::DpCore &c) {
        s.ateFor(40).fetchAdd(c, 33, mem::dmemAddr(33, 0), 5, 8);
    });
    s.run();
    EXPECT_EQ(s.core(33).dmem().load<std::uint64_t>(0), 5u);
}

TEST(Soc, SecondsTracksTicks)
{
    soc::Soc s;
    s.start(0, [](core::DpCore &c) { c.sleepCycles(800'000'000); });
    s.run(); // 800 M cycles at 800 MHz = 1 s
    EXPECT_NEAR(s.seconds(), 1.0, 1e-6);
}
