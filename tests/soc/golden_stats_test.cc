/**
 * @file
 * Golden-stats regression harness: re-runs the canonical
 * single-chip scenarios and diffs every simulator statistic against
 * its checked-in snapshot under tests/golden/ (golden.hh says how to
 * regenerate them).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "apps/registry.hh"
#include "golden.hh"
#include "scenarios.hh"

using namespace dpu;
using test::expectGolden;

TEST(GoldenStats, Listing1Stream)
{
    expectGolden("listing1", test::runListing1Scenario());
}

TEST(GoldenStats, HashPartition32Way)
{
    expectGolden("partition", test::runPartitionScenario());
}

TEST(GoldenStats, AtePingPong)
{
    expectGolden("ate_pingpong", test::runAtePingPongScenario());
}

TEST(GoldenStats, MbcStorm32To1)
{
    expectGolden("mbc_storm", test::runMbcStormScenario());
}

TEST(GoldenStats, OffloadServing)
{
    expectGolden("serving", test::runServingScenario());
}

// Figure 14 head to head: every registry app on a fresh chip at
// dpubench's --smoke sizes, which covers the whole-chip kernels
// (ATE work stealing and barriers, SMO, Murmur/NLZ) and the Xeon
// model. Each app's outcome lands in a stat group of its own.
TEST(GoldenStats, Fig14HeadToHead)
{
    const std::pair<const char *,
                    std::vector<std::pair<std::string_view,
                                          std::string_view>>>
        smoke[] = {
            {"svm",
             {{"nTrain", "1024"}, {"nTest", "256"}, {"maxIters", "60"}}},
            {"simsearch", {{"nDocs", "2048"}, {"nQueries", "4"}}},
            {"filter", {{"rowsPerCore", "8192"}}},
            {"groupby-low", {{"nRows", "65536"}}},
            {"groupby-high", {{"nRows", "65536"}, {"ndv", "8192"}}},
            {"hll-crc",
             {{"nElements", "262144"}, {"cardinality", "32768"}}},
            {"hll-murmur",
             {{"nElements", "65536"}, {"cardinality", "8192"}}},
            {"json", {{"nRecords", "2048"}}},
            {"disparity", {{"width", "128"}, {"height", "64"}}},
        };

    /** One app's result cells. */
    struct AppCells
    {
        explicit AppCells(const std::string &app) : g("fig14." + app) {}
        sim::StatGroup g;
        sim::Counter dpuTicks{g, "dpuTicks"};
        sim::Counter matched{g, "matched"};
    };
    std::vector<std::unique_ptr<AppCells>> groups;
    for (const apps::AppSpec &spec : apps::registry()) {
        apps::ConfigHandle cfg = spec.makeConfig();
        for (const auto &[app, opts] : smoke) {
            if (spec.name != app)
                continue;
            for (const auto &[k, v] : opts)
                ASSERT_TRUE(spec.set(cfg, k, v)) << spec.name << k;
        }
        const apps::AppResult r = spec.run(cfg);

        AppCells &c = *groups.emplace_back(
            std::make_unique<AppCells>(spec.name));
        c.dpuTicks += std::uint64_t(std::llround(r.dpuSeconds * 1e12));
        c.matched += r.matched;
        c.g.scalar("xeonSeconds") = r.xeonSeconds;
        c.g.scalar("workUnits") = r.workUnits;
    }
    ASSERT_EQ(groups.size(), 9u);
    expectGolden("fig14", sim::StatsRegistry::instance().snapshot());
}

// The harness must actually trip when a calibration value moves:
// stretch the DDR data-bus time per burst by a third (a value the
// 40 nm and 16 nm chips set differently) and require a non-empty
// diff against the golden run.
TEST(GoldenStats, DetectsPerturbedDdrTiming)
{
    const auto golden = test::loadGolden("listing1");
    ASSERT_TRUE(golden);

    mem::DdrParams perturbed = soc::dpu40nm().ddr;
    perturbed.tBurst = perturbed.tBurst * 4 / 3; // 5 ns -> 6.67 ns
    auto actual = test::runListing1Scenario(&perturbed);
    ASSERT_FALSE(actual.counters.empty());

    auto diffs = sim::diffSnapshots(*golden, actual);
    EXPECT_FALSE(diffs.empty())
        << "a 33% DDR burst-time change produced an identical "
           "snapshot - the golden harness is not sensitive to "
           "calibration drift";
    // The perturbation slows the stream down, so at minimum the
    // final tick must have moved.
    EXPECT_NE(golden->counters.at("sim.finalTick"),
              actual.counters.at("sim.finalTick"));
}
