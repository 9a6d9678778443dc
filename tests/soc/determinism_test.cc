/**
 * @file
 * Determinism: the simulator must be a pure function of its inputs.
 * Two runs of the same scenario in one process must produce
 * byte-identical stat dumps, identical final tick counts, and
 * identical stat snapshots.
 *
 * The properties this relies on (and that this test guards):
 *  - the event queue breaks same-tick ties by insertion sequence
 *    number, never by heap order or pointer value;
 *  - no simulator state lives in unordered containers whose
 *    iteration order could vary between runs (StatGroup uses
 *    std::map; the DMAC partition queue is a deque);
 *  - kernels take no input from wall-clock time or ASLR'd addresses.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "scenarios.hh"

using namespace dpu;

namespace {

/** Run a full-SoC workload twice; all observables must match. */
template <typename Scenario>
void
expectRepeatable(Scenario &&run)
{
    sim::StatsSnapshot first = run();
    sim::StatsSnapshot second = run();
    ASSERT_FALSE(first.counters.empty());

    EXPECT_EQ(first.counters.at("sim.finalTick"),
              second.counters.at("sim.finalTick"));
    EXPECT_TRUE(first == second)
        << sim::formatDiffs(sim::diffSnapshots(first, second, 0.0));
}

} // namespace

TEST(Determinism, Listing1RunsAreIdentical)
{
    expectRepeatable([] { return test::runListing1Scenario(); });
}

TEST(Determinism, HashPartitionRunsAreIdentical)
{
    expectRepeatable([] { return test::runPartitionScenario(); });
}

TEST(Determinism, AtePingPongRunsAreIdentical)
{
    expectRepeatable([] { return test::runAtePingPongScenario(); });
}

TEST(Determinism, MbcStormRunsAreIdentical)
{
    expectRepeatable([] { return test::runMbcStormScenario(); });
}

TEST(Determinism, ServingRunsAreIdentical)
{
    // The full offload path — admission, dispatch, kernels, acks,
    // timeout reaping — must be a pure function of the request
    // stream; identical stat snapshots twice in one process.
    expectRepeatable([] { return test::runServingScenario(); });
}

TEST(Determinism, StatDumpIsByteIdentical)
{
    // The human-readable dump must also be stable — it's what gets
    // pasted into bug reports and compared across machines.
    auto dump = [] {
        soc::Soc s;
        for (std::uint32_t i = 0; i < 4096; ++i)
            s.memory().store().store<std::uint32_t>(i * 4, i ^ 0x5a);
        s.start(0, [&](core::DpCore &c) {
            rt::DmsCtl ctl(c, s.dms());
            ctl.ddrToDmem().rows(1024).width(4).from(0).to(0).event(0)
                .push(0);
            ctl.wfe(0);
            std::uint64_t sum = 0;
            for (std::uint32_t i = 0; i < 1024; ++i)
                sum += c.dmem().load<std::uint32_t>(i * 4);
            c.dualIssue(1024, 1024);
            ctl.clearEvent(0);
            c.dmem().store<std::uint64_t>(8192, sum);
        });
        s.run();
        std::ostringstream os;
        os << s.now() << "\n";
        s.dumpStats(os);
        return os.str();
    };
    std::string a = dump();
    std::string b = dump();
    EXPECT_FALSE(a.empty());
    EXPECT_EQ(a, b);
}
