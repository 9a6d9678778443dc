/**
 * @file
 * Fault-plane unit tests: spec parsing, firing semantics (p / nth /
 * window / budget / unit filters), seed determinism, the mem.degrade
 * bandwidth divisor, stat-group lifecycle, and randomSpec stability.
 */

#include <gtest/gtest.h>

#include "sim/domain.hh"
#include "sim/fault.hh"

using namespace dpu::sim;

namespace {

/** Fresh plane per test (the process-wide one is shared state). */
struct PlaneGuard
{
    PlaneGuard() { faultPlane().reset(); }
    ~PlaneGuard() { faultPlane().reset(); }
};

} // namespace

TEST(FaultPlane, InertUntilConfigured)
{
    PlaneGuard g;
    FaultPlane &fp = faultPlane();
    EXPECT_FALSE(fp.active());
    EXPECT_FALSE(fp.hasMemFault());
    EXPECT_FALSE(fp.fires(FaultSite::DmsWedge, 0));
    EXPECT_EQ(fp.statGroup(), nullptr);
    EXPECT_EQ(fp.injectedTotal(), 0u);
}

TEST(FaultPlane, ParsesMultiRuleSpec)
{
    PlaneGuard g;
    FaultPlane &fp = faultPlane();
    fp.configure(
        "dms.wedge@nth=20,max=1;"
        "ate.drop@p=0.05,from=1e6,to=2e9,unit=3;"
        "mem.degrade@mag=8",
        42);
    ASSERT_TRUE(fp.active());
    ASSERT_EQ(fp.ruleSet().size(), 3u);

    const FaultRule &wedge = fp.ruleSet()[0];
    EXPECT_EQ(wedge.site, FaultSite::DmsWedge);
    EXPECT_EQ(wedge.nth, 20u);
    EXPECT_EQ(wedge.max, 1u);

    const FaultRule &drop = fp.ruleSet()[1];
    EXPECT_EQ(drop.site, FaultSite::AteDrop);
    EXPECT_DOUBLE_EQ(drop.p, 0.05);
    EXPECT_EQ(drop.from, Tick(1e6));
    EXPECT_EQ(drop.to, Tick(2e9));
    EXPECT_EQ(drop.unit, 3);

    const FaultRule &mem = fp.ruleSet()[2];
    EXPECT_EQ(mem.site, FaultSite::MemDegrade);
    EXPECT_EQ(mem.mag, 8u);
    EXPECT_TRUE(fp.hasMemFault());
}

TEST(FaultPlane, NthRuleFiresOnExactOpportunities)
{
    PlaneGuard g;
    FaultPlane &fp = faultPlane();
    fp.configure("mbc.drop@nth=3", 1);
    unsigned fired = 0;
    for (unsigned i = 1; i <= 12; ++i)
        fired += fp.fires(FaultSite::MbcDrop, Tick(i));
    EXPECT_EQ(fired, 4u); // opportunities 3, 6, 9, 12
    EXPECT_EQ(fp.injected(FaultSite::MbcDrop), 4u);
}

TEST(FaultPlane, BudgetCapsFirings)
{
    PlaneGuard g;
    FaultPlane &fp = faultPlane();
    fp.configure("core.stall@nth=1,max=2,mag=77", 1);
    std::uint64_t mag = 0;
    EXPECT_TRUE(fp.fires(FaultSite::CoreStall, 0, -1, &mag));
    EXPECT_EQ(mag, 77u);
    EXPECT_TRUE(fp.fires(FaultSite::CoreStall, 1));
    for (unsigned i = 0; i < 50; ++i)
        EXPECT_FALSE(fp.fires(FaultSite::CoreStall, Tick(2 + i)));
    EXPECT_EQ(fp.injected(FaultSite::CoreStall), 2u);
}

TEST(FaultPlane, WindowAndUnitFiltersGateOpportunities)
{
    PlaneGuard g;
    FaultPlane &fp = faultPlane();
    fp.configure("ate.drop@nth=1,from=100,to=200,unit=5", 1);
    EXPECT_FALSE(fp.fires(FaultSite::AteDrop, 99, 5));  // early
    EXPECT_FALSE(fp.fires(FaultSite::AteDrop, 150, 4)); // wrong unit
    EXPECT_TRUE(fp.fires(FaultSite::AteDrop, 150, 5));
    EXPECT_FALSE(fp.fires(FaultSite::AteDrop, 200, 5)); // past `to`
    // Filtered opportunities must not advance the nth counter.
    EXPECT_EQ(fp.injected(FaultSite::AteDrop), 1u);
}

TEST(FaultPlane, ProbabilisticRuleIsSeedDeterministic)
{
    PlaneGuard g;
    FaultPlane &fp = faultPlane();

    auto pattern = [&](std::uint64_t seed) {
        fp.configure("ate.drop@p=0.3", seed);
        std::string bits;
        for (unsigned i = 0; i < 200; ++i)
            bits += fp.fires(FaultSite::AteDrop, Tick(i)) ? '1'
                                                          : '0';
        fp.reset();
        return bits;
    };

    const std::string a = pattern(7), b = pattern(7),
                      c = pattern(8);
    EXPECT_EQ(a, b) << "same seed must replay identically";
    EXPECT_NE(a, c) << "different seeds must diverge";
    EXPECT_NE(a.find('1'), std::string::npos);
    EXPECT_NE(a.find('0'), std::string::npos);
}

TEST(FaultPlane, MemDivisorAppliesInsideWindowOnly)
{
    PlaneGuard g;
    FaultPlane &fp = faultPlane();
    fp.configure("mem.degrade@from=1000,to=2000,mag=4", 1);
    EXPECT_EQ(fp.memBwDivisor(999), 1u);
    EXPECT_EQ(fp.memBwDivisor(1000), 4u);
    EXPECT_EQ(fp.memBwDivisor(1999), 4u);
    EXPECT_EQ(fp.memBwDivisor(2000), 1u);

    // A second, overlapping rule multiplies the divisor, and a burst
    // both rules degrade is still one injection, in injected() and
    // in the "fault" cell alike.
    fp.configure("mem.degrade@from=1000,to=2000,mag=4;"
                 "mem.degrade@from=1500,to=3000,mag=3",
                 1);
    EXPECT_EQ(fp.memBwDivisor(999), 1u);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(fp.memBwDivisor(1500 + i), 12u);
    EXPECT_EQ(fp.injected(FaultSite::MemDegrade), 10u);
    EXPECT_EQ(fp.statGroup()->get("mem.degrade"), 10u);
    EXPECT_EQ(fp.memBwDivisor(1499), 4u);
    EXPECT_EQ(fp.memBwDivisor(2000), 3u);
    EXPECT_EQ(fp.memBwDivisor(3000), 1u);
    EXPECT_EQ(fp.injected(FaultSite::MemDegrade), 12u);
    EXPECT_EQ(fp.statGroup()->get("mem.degrade"), 12u);
}

TEST(FaultPlane, StatGroupTracksInjections)
{
    PlaneGuard g;
    FaultPlane &fp = faultPlane();
    fp.configure("mbc.drop@nth=1,max=3", 1);
    ASSERT_NE(fp.statGroup(), nullptr);
    fp.fires(FaultSite::MbcDrop, 0);
    fp.fires(FaultSite::MbcDrop, 1);
    EXPECT_EQ(fp.statGroup()->get("mbc.drop"), 2u);
    fp.reset();
    EXPECT_EQ(fp.statGroup(), nullptr);
    EXPECT_EQ(fp.injectedTotal(), 0u);
}

TEST(FaultPlane, RandomSpecIsStableAndParses)
{
    PlaneGuard g;
    for (std::uint64_t seed = 0; seed < 32; ++seed) {
        const std::string spec = FaultPlane::randomSpec(seed);
        EXPECT_EQ(spec, FaultPlane::randomSpec(seed));
        faultPlane().configure(spec, seed);
        EXPECT_TRUE(faultPlane().active()) << spec;
        EXPECT_GE(faultPlane().ruleSet().size(), 1u);
        EXPECT_LE(faultPlane().ruleSet().size(), 3u);
        faultPlane().reset();
    }
    EXPECT_NE(FaultPlane::randomSpec(1), FaultPlane::randomSpec(2));
}

TEST(FaultPlane, RandomSpecMatchesPinnedStrings)
{
    // The schedules chaos runs replay, pinned so every compiler
    // draws each rule's fields in the same order. The four seeds
    // cover all seven rule kinds.
    const std::pair<std::uint64_t, const char *> pinned[] = {
        {0, "ate.drop@p=0.01,max=6;"
            "mem.degrade@from=1000000000,to=5000000000,mag=5;"
            "dms.wedge@nth=53,max=1"},
        {4, "core.stall@nth=21,max=2,mag=640000;mbc.drop@nth=31,max=1;"
            "core.stall@nth=6,max=2,mag=560000"},
        {7, "ate.delay@p=0.1,mag=2000000;"
            "core.stall@nth=24,max=2,mag=640000;"
            "dms.descError@p=0.04,max=4"},
        {10, "mbc.drop@nth=27,max=1;dms.descError@p=0.05,max=6;"
             "dms.descError@p=0.05,max=5"},
    };
    for (const auto &[seed, spec] : pinned)
        EXPECT_EQ(FaultPlane::randomSpec(seed), spec) << seed;
}

// ----------------------------------------------------------------
// Per-domain streams (the parallel board's determinism contract)
// ----------------------------------------------------------------

TEST(FaultPlane, DomainZeroReplaysThePreDomainStream)
{
    PlaneGuard g;
    FaultPlane &fp = faultPlane();

    auto pattern = [&](unsigned domains) {
        fp.configure("ate.drop@p=0.3", 7);
        if (domains > 1)
            fp.ensureDomains(domains);
        std::string bits;
        for (unsigned i = 0; i < 200; ++i)
            bits += fp.fires(FaultSite::AteDrop, Tick(i)) ? '1'
                                                          : '0';
        fp.reset();
        return bits;
    };

    // Sizing the plane for a 4-DPU board must not perturb what a
    // single-chip run (domain 0) observes.
    EXPECT_EQ(pattern(1), pattern(4));
}

TEST(FaultPlane, DomainStreamsAreIndependent)
{
    PlaneGuard g;
    FaultPlane &fp = faultPlane();

    // Domain 1's decision stream, alone on the plane.
    auto solo = [&] {
        fp.configure("link.drop@p=0.3", 9);
        fp.ensureDomains(4);
        std::string bits;
        DomainScope ds(1);
        for (unsigned i = 0; i < 200; ++i)
            bits += fp.fires(FaultSite::LinkDrop, Tick(i)) ? '1'
                                                           : '0';
        fp.reset();
        return bits;
    }();

    // The same stream with domains 0, 2 and 3 drawing heavily in
    // between: their consumption must not advance domain 1's RNG.
    fp.configure("link.drop@p=0.3", 9);
    fp.ensureDomains(4);
    std::string bits;
    for (unsigned i = 0; i < 200; ++i) {
        for (const unsigned other : {0u, 2u, 3u}) {
            DomainScope ds(other);
            fp.fires(FaultSite::LinkDrop, Tick(i));
            fp.fires(FaultSite::LinkDrop, Tick(i));
        }
        DomainScope ds(1);
        bits += fp.fires(FaultSite::LinkDrop, Tick(i)) ? '1' : '0';
    }
    fp.reset();
    EXPECT_EQ(bits, solo)
        << "other domains' draws leaked into domain 1's stream";

    // Different domains get different streams from one rule seed.
    fp.configure("link.drop@p=0.3", 9);
    fp.ensureDomains(2);
    std::string d0, d1;
    for (unsigned i = 0; i < 200; ++i) {
        {
            DomainScope ds(0);
            d0 += fp.fires(FaultSite::LinkDrop, Tick(i)) ? '1' : '0';
        }
        {
            DomainScope ds(1);
            d1 += fp.fires(FaultSite::LinkDrop, Tick(i)) ? '1' : '0';
        }
    }
    fp.reset();
    EXPECT_NE(d0, d1) << "chips must not fault in lockstep";
}

TEST(FaultPlane, PerDomainTalliesFoldIntoOneStatGroup)
{
    PlaneGuard g;
    FaultPlane &fp = faultPlane();
    fp.configure("mbc.drop@nth=1", 1);
    fp.ensureDomains(3);

    for (unsigned hits = 0; hits < 1; ++hits)
        fp.fires(FaultSite::MbcDrop, 0);
    {
        DomainScope ds(1);
        fp.fires(FaultSite::MbcDrop, 1);
        fp.fires(FaultSite::MbcDrop, 2);
    }
    {
        DomainScope ds(2);
        fp.fires(FaultSite::MbcDrop, 3);
        fp.fires(FaultSite::MbcDrop, 4);
        fp.fires(FaultSite::MbcDrop, 5);
    }

    // Budgets and counts are per (rule, domain)...
    ASSERT_EQ(fp.ruleSet().size(), 1u);
    ASSERT_GE(fp.ruleSet()[0].dom.size(), 3u);
    EXPECT_EQ(fp.ruleSet()[0].dom[0].fired, 1u);
    EXPECT_EQ(fp.ruleSet()[0].dom[1].fired, 2u);
    EXPECT_EQ(fp.ruleSet()[0].dom[2].fired, 3u);
    // ...but the exported stats stay one aggregated group.
    EXPECT_EQ(fp.statGroup()->get("mbc.drop"), 6u);
    EXPECT_EQ(fp.injected(FaultSite::MbcDrop), 6u);
    EXPECT_EQ(fp.injectedTotal(), 6u);
}
