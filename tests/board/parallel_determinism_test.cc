/**
 * @file
 * The parallel determinism/race test wall.
 *
 * The contract under test: a multi-DPU board run is a pure function
 * of (workload, seed) — the worker-thread count is invisible. A
 * 4-DPU board runs the mixed SQL + HLL workload under a seeded
 * link-fault schedule ten times across --threads {1, 2, 4}; every
 * stats snapshot and every exported trace must be bit-identical to
 * the serial reference. A second group pins parallel mode to the
 * checked-in serial golden (tests/golden/board.json): parallel
 * execution must not merely be self-consistent, it must reproduce
 * the exact schedule the one-queue simulator produced.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "board/board.hh"
#include "board/board_apps.hh"
#include "golden.hh"
#include "sim/fault.hh"
#include "sim/stats.hh"
#include "sim/stats_registry.hh"
#include "sim/trace.hh"
#include "topo/topology.hh"

using namespace dpu;

namespace {

struct RunResult
{
    sim::StatsSnapshot snap;
    std::string trace; ///< exported Chrome-trace JSON, the digest
};

/**
 * One full mixed run: 4 DPUs, sharded SQL then distributed HLL,
 * with tracing armed and (optionally) a seeded link-fault schedule,
 * at the given worker-thread count.
 */
RunResult
runMixedScenario(unsigned threads, const char *faults = nullptr,
                 std::uint64_t fault_seed = 42)
{
    sim::faultPlane().reset();
    if (faults)
        sim::faultPlane().configure(faults, fault_seed);
    sim::tracer().arm(std::size_t(1) << 14);

    const auto brd = topo::ClusterTopology::board(4)
                         .threads(threads)
                         .buildBoard();
    board::Board &b = *brd;

    board::ShardedSqlConfig scfg;
    scfg.rowsPerDpu = 2048;
    const auto sres = board::runShardedSql(b, scfg);
    EXPECT_TRUE(sres.valid) << "SQL invalid at threads=" << threads;

    board::DistHllConfig hcfg;
    hcfg.elementsPerDpu = 1 << 12;
    hcfg.cardinality = 1 << 10;
    const auto hres = board::runDistributedHll(b, hcfg);
    EXPECT_TRUE(hres.valid) << "HLL invalid at threads=" << threads;

    RunResult out;
    out.snap = sim::StatsRegistry::instance().snapshot();
    out.snap.counters["sim.finalTick"] = b.now();
    std::ostringstream os;
    sim::tracer().exportJson(os);
    out.trace = os.str();

    sim::tracer().disarm();
    sim::tracer().clear();
    sim::faultPlane().reset();
    return out;
}

/** The board_test golden scenario, with a thread-count knob. */
sim::StatsSnapshot
runGoldenScenario(unsigned threads)
{
    sim::faultPlane().reset();
    const auto brd = topo::ClusterTopology::board(2)
                         .threads(threads)
                         .buildBoard();
    board::Board &b = *brd;
    board::ShardedSqlConfig cfg;
    cfg.rowsPerDpu = 4096;
    const auto res = board::runShardedSql(b, cfg);
    if (!res.valid)
        return {};
    sim::StatsSnapshot snap =
        sim::StatsRegistry::instance().snapshot();
    snap.counters["sim.finalTick"] = b.now();
    return snap;
}

} // namespace

TEST(ParallelDeterminism, TenRunsAcrossThreadCountsAreBitIdentical)
{
    const char *spec = "link.drop@p=0.02;link.delay@p=0.05";
    // 10 runs: 2 serial references, then 2/4-thread replays.
    const unsigned plan[10] = {1, 1, 2, 2, 2, 2, 4, 4, 4, 4};

    RunResult ref;
    for (unsigned i = 0; i < 10; ++i) {
        RunResult r = runMixedScenario(plan[i], spec, 42);
        ASSERT_FALSE(r.snap.counters.empty());
        if (i == 0) {
            ref = std::move(r);
            EXPECT_FALSE(ref.trace.empty());
            continue;
        }
        const auto diffs = sim::diffSnapshots(ref.snap, r.snap);
        EXPECT_TRUE(diffs.empty())
            << "run " << i << " (threads=" << plan[i] << "): "
            << diffs.size() << " stat(s) diverged from serial:\n"
            << sim::formatDiffs(diffs);
        EXPECT_EQ(r.trace, ref.trace)
            << "run " << i << " (threads=" << plan[i]
            << "): trace digest diverged from serial";
    }
}

TEST(ParallelDeterminism, ParallelModeReproducesTheSerialGolden)
{
    const auto golden = test::loadGolden("board");
    ASSERT_TRUE(golden);

    // threads=4 on a 2-DPU board exercises the clamp path.
    for (const unsigned threads : {2u, 4u}) {
        const auto actual = runGoldenScenario(threads);
        ASSERT_FALSE(actual.counters.empty());
        const auto diffs = sim::diffSnapshots(*golden, actual);
        EXPECT_TRUE(diffs.empty())
            << "threads=" << threads << ": " << diffs.size()
            << " stat(s) drifted from the serial golden:\n"
            << sim::formatDiffs(diffs);
    }
}

TEST(ParallelDeterminism, MemoryImagesMatchSerialAcrossThreads)
{
    // The stats wall above covers timing; this pins the functional
    // side: the bytes a cross-DPU DMA exchange leaves in every DDR
    // space must not depend on the thread count either.
    auto image = [](unsigned threads) {
        sim::faultPlane().reset();
        const auto brd = topo::ClusterTopology::board(4)
                             .threads(threads)
                             .buildBoard();
        board::Board &b = *brd;
        // All-to-all pattern exchange, issued host-phase.
        std::vector<std::uint8_t> out;
        for (unsigned s = 0; s < 4; ++s) {
            std::vector<std::uint8_t> pat(1024);
            for (std::size_t i = 0; i < pat.size(); ++i)
                pat[i] = std::uint8_t(s * 37 + i * 11);
            b.dpu(s).memory().store().write(0x2000, pat.data(),
                                            pat.size());
            for (unsigned d = 0; d < 4; ++d)
                if (d != s)
                    b.dma(s, 0x2000, d, 0x9000 + s * 0x1000,
                          pat.size());
        }
        b.run();
        for (unsigned d = 0; d < 4; ++d) {
            std::vector<std::uint8_t> got(4 * 0x1000);
            b.dpu(d).memory().store().read(0x9000, got.data(),
                                           got.size());
            out.insert(out.end(), got.begin(), got.end());
        }
        return out;
    };
    const auto serial = image(1);
    EXPECT_EQ(image(2), serial);
    EXPECT_EQ(image(4), serial);
}
