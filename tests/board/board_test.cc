/**
 * @file
 * Board-layer tests: link fabric timing and fault semantics, bulk
 * DMA between DPU DDR spaces, teardown with events and mail still
 * pending, the cross-DPU workloads, shard
 * routing, and the multi-DPU determinism + golden contract — a
 * fixed 2-DPU sharded workload must produce bit-identical stats
 * across reruns (clean and under a seeded link-fault schedule) and
 * match the checked-in snapshot in tests/golden/board.json, and
 * caches built on worker threads keep the stat names a serial run
 * gives them.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <set>
#include <sstream>
#include <vector>

#include "board/board.hh"
#include "board/board_apps.hh"
#include "golden.hh"
#include "host/board_offload.hh"
#include "sim/domain.hh"
#include "sim/fault.hh"
#include "sim/json.hh"
#include "sim/stats.hh"
#include "sim/stats_registry.hh"
#include "sim/trace.hh"
#include "topo/topology.hh"

using namespace dpu;

namespace {

/**
 * The canonical board scenario: 2 DPUs, the sharded SQL workload
 * at a fixed seed. Returns the full stats snapshot (plus the end
 * tick); empty on any validation failure.
 */
sim::StatsSnapshot
runBoardScenario(const char *faults = nullptr,
                 std::uint64_t fault_seed = 42)
{
    sim::faultPlane().reset();
    if (faults)
        sim::faultPlane().configure(faults, fault_seed);

    const auto brd = topo::ClusterTopology::board(2).buildBoard();
    board::Board &b = *brd;
    board::ShardedSqlConfig cfg;
    cfg.rowsPerDpu = 4096;
    const board::ShardedSqlResult res = board::runShardedSql(b, cfg);
    sim::faultPlane().reset();
    if (!res.valid)
        return {};
    sim::StatsSnapshot snap =
        sim::StatsRegistry::instance().snapshot();
    snap.counters["sim.finalTick"] = b.now();
    return snap;
}

} // namespace

// ----------------------------------------------------------------
// Link fabric
// ----------------------------------------------------------------

TEST(LinkFabric, SendDeliveryAndChannelSerialization)
{
    sim::faultPlane().reset();
    const auto brd = topo::ClusterTopology::board(2).buildBoard();
    board::Board &b = *brd;

    struct Arrival
    {
        unsigned src;
        std::uint64_t payload;
        sim::Tick at;
        unsigned ranOn;
    };
    std::vector<Arrival> got;
    // Two pointer-sized doorbells on the (0, 1) channel.
    for (const std::uint64_t payload : {0xabcdull, 0xef01ull}) {
        bool dropped = true;
        b.fabric().send(0, 1, 8, sim::Traffic::Workload,
                        [&got, &b, payload] {
                            got.push_back({0, payload, b.now(),
                                           sim::currentDomain()});
                        },
                        dropped);
        EXPECT_FALSE(dropped);
    }
    b.run();

    ASSERT_EQ(got.size(), 2u);
    EXPECT_EQ(got[0].src, 0u);
    EXPECT_EQ(got[0].payload, 0xabcdull);
    EXPECT_EQ(got[1].payload, 0xef01ull);
    // Each closure ran on the destination chip's partition...
    EXPECT_EQ(got[0].ranOn, 1u);
    EXPECT_EQ(got[1].ranOn, 1u);
    // ...both burned at least the hop latency...
    EXPECT_GE(got[0].at, board::linkHopLatency);
    // ...and the shared (0,1) channel serialized them: the second
    // message's wire time starts after the first finishes.
    EXPECT_GT(got[1].at, got[0].at);
    EXPECT_EQ(b.fabric().messages(), 2u);
    EXPECT_GT(b.fabric().utilization(0, 1), 0.0);
    EXPECT_EQ(b.fabric().utilization(1, 0), 0.0);
}

TEST(LinkFabric, BulkDmaCopiesBetweenDdrSpaces)
{
    sim::faultPlane().reset();
    const auto brd = topo::ClusterTopology::board(2).buildBoard();
    board::Board &b = *brd;

    std::vector<std::uint8_t> pattern(4096);
    for (std::size_t i = 0; i < pattern.size(); ++i)
        pattern[i] = std::uint8_t(i * 7 + 3);
    b.dpu(0).memory().store().write(0x2000, pattern.data(),
                                    pattern.size());

    bool ok = false;
    b.dma(0, 0x2000, 1, 0x9000, pattern.size(),
          [&](bool k) { ok = k; });
    b.run();

    EXPECT_TRUE(ok);
    std::vector<std::uint8_t> got(pattern.size());
    b.dpu(1).memory().store().read(0x9000, got.data(), got.size());
    EXPECT_EQ(got, pattern);
    EXPECT_GE(b.fabric().bytesCarried(), pattern.size());
}

TEST(LinkFabric, DroppedBulkIsRetriedTransparently)
{
    sim::faultPlane().reset();
    // Exactly the first link message is lost; the Board's bounded
    // retransmit must deliver on the second attempt.
    sim::faultPlane().configure("link.drop@nth=1,max=1", 7);
    const auto brd = topo::ClusterTopology::board(2).buildBoard();
    board::Board &b = *brd;

    std::vector<std::uint8_t> pattern(512, 0x5a);
    b.dpu(0).memory().store().write(0x2000, pattern.data(),
                                    pattern.size());
    bool ok = false;
    b.dma(0, 0x2000, 1, 0x9000, pattern.size(),
          [&](bool k) { ok = k; });
    b.run();
    sim::faultPlane().reset();

    EXPECT_TRUE(ok);
    std::vector<std::uint8_t> got(pattern.size());
    b.dpu(1).memory().store().read(0x9000, got.data(), got.size());
    EXPECT_EQ(got, pattern);
    EXPECT_EQ(b.fabric().statGroup().get("bulkRetries"), 1u);
}

TEST(LinkFabric, ExhaustedRetriesReportFailure)
{
    sim::faultPlane().reset();
    sim::faultPlane().configure("link.drop@p=1", 7);
    const auto brd = topo::ClusterTopology::board(2).buildBoard();
    board::Board &b = *brd;

    b.dpu(0).memory().store().store<std::uint32_t>(0x2000, 17);
    bool called = false, ok = true;
    b.dma(0, 0x2000, 1, 0x9000, 4, [&](bool k) {
        called = true;
        ok = k;
    });
    b.run();
    sim::faultPlane().reset();

    EXPECT_TRUE(called);
    EXPECT_FALSE(ok);
    EXPECT_EQ(b.fabric().statGroup().get("bulkRetries"),
              board::dmaRetries);
    EXPECT_EQ(b.fabric().statGroup().get("bulkFailed"), 1u);
}

// ----------------------------------------------------------------
// Teardown with work in flight
// ----------------------------------------------------------------

TEST(Board, TeardownWithEventsPendingEverywhereIsClean)
{
    sim::faultPlane().reset();
    auto brd = topo::ClusterTopology::board(2).buildBoard();
    board::Board &b = *brd;
    const sim::Tick bound = 1'000'000; // 1 us
    unsigned late = 0; // closures that run after the bound

    for (unsigned d = 0; d < 2; ++d) {
        // Cores sleep well past the bound: their member resume
        // events stay pending.
        for (unsigned c = 0; c < 4; ++c)
            b.dpu(d).start(c, [](core::DpCore &core) {
                core.sleepCycles(100'000);
            });
        // A pooled callback past the bound.
        b.eventQueue(d).schedule(10 * bound, [&late] { ++late; });
    }
    // DPU 0's A9 is busy and DPU 1's waits for mail that never
    // comes: each has its member resume event pending.
    b.dpu(0).a9().start([](soc::HostA9 &h) { h.busyUs(20.0); });
    b.dpu(1).a9().start([=](soc::HostA9 &h) {
        std::uint64_t msg;
        (void)h.recvUntil(20 * bound, msg);
    });
    // Just before the bound, DPU 0 sends to DPU 1: the delivery lies
    // past the bound, so the runner's last drain leaves it pending
    // on DPU 1's queue.
    bool dropped = true;
    b.eventQueue(0).schedule(bound - 1, [&] {
        b.fabric().send(0, 1, 8, sim::Traffic::Workload,
                        [&late] { ++late; }, dropped);
    });

    EXPECT_EQ(b.runFor(bound), bound);
    EXPECT_FALSE(dropped);
    EXPECT_FALSE(b.allFinished());
    EXPECT_FALSE(b.dpu(0).a9().finished());
    EXPECT_FALSE(b.dpu(1).a9().finished());
    // Four core resumes, the pooled callback and an A9 wait on each
    // chip, plus the drained delivery on DPU 1.
    EXPECT_EQ(b.eventQueue(0).pending(), 6u);
    EXPECT_EQ(b.eventQueue(1).pending(), 7u);

    // A host-phase send waits in chip 1's outbox for the next run.
    b.fabric().send(1, 0, 64, sim::Traffic::Workload,
                    [&late] { ++late; }, dropped);
    EXPECT_FALSE(dropped);
    EXPECT_EQ(b.eventQueue(0).pending(), 6u);

    // Members go in reverse order: the A9s and the chips unlink their
    // pending member events from live queues, the runner drops its
    // mail, and each queue severs what is left.
    brd.reset();
    EXPECT_EQ(late, 0u);
}

// ----------------------------------------------------------------
// Cross-DPU workloads
// ----------------------------------------------------------------

TEST(BoardApps, ShardedSqlValidAtEveryBoardSize)
{
    for (unsigned n : {1u, 2u, 4u}) {
        sim::faultPlane().reset();
        const auto brd = topo::ClusterTopology::board(n).buildBoard();
        board::Board &b = *brd;
        board::ShardedSqlConfig cfg;
        cfg.rowsPerDpu = 4096;
        const auto res = board::runShardedSql(b, cfg);
        EXPECT_TRUE(res.valid) << n << " DPUs";
        EXPECT_EQ(res.rows, std::uint64_t(4096) * n);
        EXPECT_GT(res.seconds, 0.0);
        if (n > 1) {
            EXPECT_GT(res.bytesShipped, 0u);
            EXPECT_GT(res.peakLinkUtilization, 0.0);
        } else {
            EXPECT_EQ(res.bytesShipped, 0u);
        }
    }
}

TEST(BoardApps, DistributedHllMergesExactly)
{
    sim::faultPlane().reset();
    const auto brd = topo::ClusterTopology::board(2).buildBoard();
    board::Board &b = *brd;
    board::DistHllConfig cfg;
    cfg.elementsPerDpu = 1 << 12;
    cfg.cardinality = 1 << 10;
    const auto res = board::runDistributedHll(b, cfg);
    EXPECT_TRUE(res.valid);
    EXPECT_TRUE(res.sketchExact);
    EXPECT_GT(res.trueDistinct, 0u);
    EXPECT_LT(res.errorFrac, 0.15);
}

TEST(BoardApps, TracedChipsRecordUnderTheirOwnProcesses)
{
    // Every chip names the same tracks ("dmad3", ...), so chip 1's
    // records export under pids of its own, 8 + subsystem, in
    // processes named after it; chip 0 keeps pid = subsystem.
    sim::faultPlane().reset();
    const auto brd = topo::ClusterTopology::board(2).buildBoard();
    sim::tracer().arm(std::size_t(1) << 16);
    board::DistHllConfig cfg;
    cfg.elementsPerDpu = 1 << 10;
    cfg.cardinality = 1 << 8;
    EXPECT_TRUE(board::runDistributedHll(*brd, cfg).valid);
    std::ostringstream os;
    sim::tracer().exportJson(os);
    sim::tracer().disarm();
    sim::tracer().clear();

    sim::json::Value doc;
    std::string err;
    ASSERT_TRUE(sim::json::parse(os.str(), doc, err)) << err;
    const std::int64_t dms = std::int64_t(sim::TraceCat::Dms);
    std::map<std::int64_t, std::string> procs;
    std::set<std::int64_t> dmsPids, namedTracks;
    for (const sim::json::Value &e : doc.find("traceEvents")->arr) {
        const std::int64_t pid = e.find("pid")->i;
        const std::string &name = e.find("name")->s;
        if (e.find("ph")->s != "M") {
            if (pid % 8 == dms)
                dmsPids.insert(pid);
        } else if (name == "process_name") {
            procs[pid] = e.find("args")->find("name")->s;
        } else if (name == "thread_name") {
            namedTracks.insert(pid);
        }
    }
    EXPECT_EQ(dmsPids, (std::set<std::int64_t>{dms, 8 + dms}));
    EXPECT_EQ(procs[dms], "DMS");
    EXPECT_EQ(procs[8 + dms], "dpu1 DMS");
    EXPECT_TRUE(namedTracks.count(8 + dms))
        << "chip 1's DMS tracks carry their names";
}

// ----------------------------------------------------------------
// Shard routing
// ----------------------------------------------------------------

TEST(BoardScheduler, HashRoutingIsDeterministicAndSpread)
{
    sim::faultPlane().reset();
    const auto brd = topo::ClusterTopology::board(4).buildBoard();
    board::Board &b = *brd;
    host::BoardScheduler sched(b, host::OffloadParams{},
                               host::makeHashRouter());

    std::vector<unsigned> counts(4, 0);
    for (unsigned i = 0; i < 64; ++i) {
        host::JobRequest req;
        req.app = "filter";
        req.seed = 0x1000 + i;
        const unsigned d = sched.route(req);
        // Same request, same home DPU — a pure function.
        EXPECT_EQ(sched.route(req), d);
        ++counts[d];
    }
    unsigned used = 0;
    for (unsigned c : counts)
        used += c > 0;
    EXPECT_GE(used, 3u) << "hash routing collapsed onto few shards";
}

// ----------------------------------------------------------------
// Determinism + golden
// ----------------------------------------------------------------

TEST(BoardDeterminism, RerunsAreBitIdentical)
{
    const auto a = runBoardScenario();
    const auto b = runBoardScenario();
    ASSERT_FALSE(a.counters.empty());
    const auto diffs = sim::diffSnapshots(a, b);
    EXPECT_TRUE(diffs.empty())
        << diffs.size() << " stat(s) differ across reruns:\n"
        << sim::formatDiffs(diffs);
}

TEST(BoardDeterminism, FaultReplayIsBitIdentical)
{
    const char *spec = "link.drop@p=0.02;link.delay@p=0.05";
    const auto a = runBoardScenario(spec, 42);
    const auto b = runBoardScenario(spec, 42);
    ASSERT_FALSE(a.counters.empty())
        << "workload did not survive the fault schedule";
    const auto diffs = sim::diffSnapshots(a, b);
    EXPECT_TRUE(diffs.empty())
        << diffs.size()
        << " stat(s) differ across seeded fault replays:\n"
        << sim::formatDiffs(diffs);
}

TEST(BoardDeterminism, CachesUsedOnWorkerThreadsKeepTheirNames)
{
    // Chip d's first cached loads reach its core-0 L1-D and macro-0
    // L2 inside its partition's events, on its worker thread, in
    // whatever order the workers reach them. Each cache counts into
    // a group built with its chip, so chip d's cells read under the
    // same "#d" at every thread count.
    std::vector<sim::StatsSnapshot> snaps;
    for (const unsigned threads : {1u, 4u}) {
        auto b = topo::ClusterTopology::board(4).threads(threads)
                     .buildBoard();
        for (unsigned d = 0; d < 4; ++d) {
            b->dpu(d).start(0, [d](core::DpCore &c) {
                for (unsigned i = 0; i <= d; ++i)
                    (void)c.load<std::uint32_t>(i * 4096);
            });
        }
        b->run();
        snaps.push_back(sim::StatsRegistry::instance().snapshot());
        const auto &cells = snaps.back().counters;
        EXPECT_EQ(cells.at("core0.l1d.misses"), 1u) << threads;
        EXPECT_EQ(cells.at("core0#3.l1d.misses"), 4u) << threads;
        EXPECT_EQ(cells.at("macro0.l2#3.misses"), 4u) << threads;
    }
    EXPECT_EQ(snaps[0], snaps[1]);
}

TEST(BoardDeterminism, GoldenSnapshotMatches)
{
    test::expectGolden("board", runBoardScenario());
}
