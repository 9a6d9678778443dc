/**
 * @file
 * Rack balancer tests: the RackScheduler's drain-then-switch
 * protocol end to end — the forwarding epoch, abort-on-drop with a
 * later-window retry, a board outage overlapping an active
 * migration with full request accounting, and a 10-run determinism
 * wall across --threads {1, 2, 4} while migrations are live. The
 * planner laws both tiers share live in
 * tests/board/board_balance_test.cc, and the scheduler's placement
 * check in tests/rack/topology_test.cc.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "board/balance.hh"
#include "host/offload.hh"
#include "rack/rack.hh"
#include "rack/scheduler.hh"
#include "rack/trace.hh"
#include "rack/workload.hh"
#include "sim/fault.hh"
#include "sim/stats_registry.hh"
#include "topo/topology.hh"

using namespace dpu;

namespace {

constexpr sim::Tick kUs = 1'000'000;
constexpr sim::Tick kMs = 1'000'000'000;

/**
 * Keys with pairwise-distinct partitions all homed on one board —
 * the adversarial skew shape: a hot step onto these keys piles
 * whole partitions onto a single board. Pure function of the
 * placement constants (rack::keyPartition / board::hashHome).
 */
std::vector<std::uint64_t>
coHomedKeys(unsigned want, unsigned parts, unsigned boards,
            unsigned *hot_out = nullptr)
{
    const unsigned hot =
        board::hashHome(rack::keyPartition(0, parts), boards);
    std::vector<std::uint64_t> keys;
    std::set<unsigned> seen;
    for (std::uint64_t k = 0; k < 65536 && keys.size() < want;
         ++k) {
        const unsigned p = rack::keyPartition(k, parts);
        if (board::hashHome(p, boards) != hot || seen.count(p))
            continue;
        seen.insert(p);
        keys.push_back(k);
    }
    if (hot_out)
        *hot_out = hot;
    return keys;
}

rack::RackRequest
keyedRequest(sim::Tick at, std::uint64_t key, std::uint64_t seed)
{
    return rack::makeRequest({at, key, 0, seed},
                             rack::servingMix());
}

/** A 4-board rack with one DPU per board (protocol tests only —
 *  the boards never run). */
std::unique_ptr<rack::Rack>
smallRack()
{
    return topo::ClusterTopology::rack(4, 1).buildRack();
}

/** Balancer knobs the protocol tests share: 1 ms windows, raw
 *  window counts (alpha 1), a twitchy hot threshold. */
rack::PlacementParams
balancedPlace()
{
    rack::PlacementParams place;
    place.balance.window = kMs;
    place.balance.ewmaAlpha = 1.0;
    place.balance.hotFactor = 1.1;
    place.balance.minPartitionLoad = 2.0;
    return place;
}

/**
 * The balanced end-to-end scenario: a 4 x 1 rack under a skew-step
 * trace (90% of post-step traffic onto three partitions co-homed
 * on one board) with the balancer live. Returns the full stats
 * snapshot; optionally the rack summary and drain flag.
 */
sim::StatsSnapshot
runBalancedScenario(unsigned threads, const char *faults = nullptr,
                    rack::RackSummary *sum_out = nullptr,
                    bool *finished_out = nullptr)
{
    sim::faultPlane().reset();
    if (faults)
        sim::faultPlane().configure(faults, 42);

    rack::PlacementParams pl;
    pl.balance.window = 500 * kUs;
    pl.balance.ewmaAlpha = 0.7;
    pl.balance.hotFactor = 1.1;
    pl.balance.maxMigrationsPerWindow = 2;
    pl.balance.minPartitionLoad = 2.0;

    auto r = topo::ClusterTopology::rack(4, 1)
                 .threads(threads)
                 .placement(pl)
                 .buildRack();
    rack::RackScheduler sched(*r, host::OffloadParams{}, pl);

    rack::TraceConfig tc;
    tc.ratePerSec = 30000;
    tc.durationSec = 0.004;
    tc.diurnalPeriodSec = 0.004;
    tc.nApps = unsigned(rack::servingMix().size());
    tc.seed = 33;
    tc.hotStepAtSec = 0.001;
    tc.hotStepFraction = 0.9;
    tc.hotStepKeys = coHomedKeys(3, rack::keyPartitions, 4);

    const std::vector<rack::TraceEvent> trace =
        rack::generateTrace(tc);
    const std::vector<rack::MixApp> mix = rack::servingMix();
    for (const rack::TraceEvent &ev : trace)
        sched.enqueueAt(ev.at, rack::makeRequest(ev, mix));
    sched.start();
    r->run();

    if (finished_out)
        *finished_out = r->allFinished();
    const rack::RackSummary sum = sched.summary();
    if (sum_out)
        *sum_out = sum;
    sim::faultPlane().reset();
    if (sum.serving.validationFailed != 0)
        return {};
    sim::StatsSnapshot snap =
        sim::StatsRegistry::instance().snapshot();
    snap.counters["sim.finalTick"] = r->now();
    return snap;
}

} // namespace

// ----------------------------------------------------------------
// The drain-then-switch protocol at the scheduler
// ----------------------------------------------------------------

TEST(RackBalance, MigrationDrainsAtTheSourceThenSwitches)
{
    sim::faultPlane().reset();
    const auto rk = smallRack();
    rack::Rack &r = *rk;
    const rack::PlacementParams place = balancedPlace();
    rack::RackScheduler sched(r, {}, place);

    unsigned hot = 0;
    const auto keys =
        coHomedKeys(2, rack::keyPartitions, r.nBoards(), &hot);
    ASSERT_EQ(keys.size(), 2u);
    const unsigned p0 = sched.partitionOf(keys[0]);
    const unsigned p1 = sched.partitionOf(keys[1]);
    ASSERT_NE(p0, p1);
    ASSERT_EQ(sched.homeOf(p0), hot);
    ASSERT_EQ(sched.homeOf(p1), hot);

    // Window 1: both partitions hammer the hot board.
    for (unsigned i = 0; i < 98; ++i) {
        const sim::Tick t = 10 * kUs + i * 10 * kUs; // .. 980 us
        unsigned board = 99;
        ASSERT_EQ(sched.enqueueAt(
                      t, keyedRequest(t, keys[i % 2], i), &board),
                  rack::AdmitResult::Admitted);
        ASSERT_EQ(board, hot);
    }
    EXPECT_EQ(sched.summary().migStarted, 0u);

    // The first arrivals past the 1 ms boundary trigger the roll
    // and one migration; its ~80 KB transfer is still on the wire
    // (~25 us), so this is the forwarding epoch: the map must keep
    // pointing at the source and the hit on the migrating
    // partition counts as forwarded.
    sim::Tick at = kMs + 100'000; // 1.0001 ms
    unsigned b0 = 99, b1 = 99;
    ASSERT_EQ(sched.enqueueAt(at, keyedRequest(at, keys[0], 1000),
                              &b0),
              rack::AdmitResult::Admitted);
    at += 100'000;
    ASSERT_EQ(sched.enqueueAt(at, keyedRequest(at, keys[1], 1001),
                              &b1),
              rack::AdmitResult::Admitted);
    EXPECT_EQ(sched.summary().migStarted, 1u);
    EXPECT_EQ(sched.migrationsInFlight(), 1u);
    EXPECT_EQ(sched.summary().migCommitted, 0u);
    EXPECT_EQ(b0, hot);
    EXPECT_EQ(b1, hot);
    EXPECT_EQ(sched.homeOf(p0), hot);
    EXPECT_EQ(sched.homeOf(p1), hot);
    // Exactly one of the two arrivals hit the migrating partition.
    EXPECT_EQ(sched.summary().forwarded, 1u);

    // Past the transfer's delivery tick the map flips: exactly one
    // partition re-homed, and arrivals follow the new map.
    at = kMs + 100 * kUs; // 1.1 ms, safely past delivery
    unsigned c0 = 99, c1 = 99;
    ASSERT_EQ(sched.enqueueAt(at, keyedRequest(at, keys[0], 2000),
                              &c0),
              rack::AdmitResult::Admitted);
    ASSERT_EQ(sched.enqueueAt(at + 1000,
                              keyedRequest(at + 1000, keys[1], 2001),
                              &c1),
              rack::AdmitResult::Admitted);
    EXPECT_EQ(sched.summary().migCommitted, 1u);
    EXPECT_EQ(sched.migrationsInFlight(), 0u);
    const unsigned h0 = sched.homeOf(p0);
    const unsigned h1 = sched.homeOf(p1);
    EXPECT_TRUE((h0 == hot) != (h1 == hot))
        << "exactly one partition should have moved";
    EXPECT_EQ(c0, h0);
    EXPECT_EQ(c1, h1);
    // The hand-off payload rode the net as Migration traffic.
    EXPECT_GT(r.net().migrationBytes(), board::stateBytesPerPartition);
    sim::faultPlane().reset();
}

TEST(RackBalance, DroppedTransferAbortsAndRetriesNextWindow)
{
    sim::faultPlane().reset();
    // The drop window brackets only the first boundary: the 1 ms
    // hand-off dies on the wire, the 2 ms retry sails through. No
    // request delivery falls inside the window.
    sim::faultPlane().configure(
        "rack.netDrop@p=1,from=900000000,to=1100000000", 42);
    const auto rk = smallRack();
    rack::Rack &r = *rk;
    const rack::PlacementParams place = balancedPlace();
    rack::RackScheduler sched(r, {}, place);

    unsigned hot = 0;
    const auto keys =
        coHomedKeys(2, rack::keyPartitions, r.nBoards(), &hot);
    ASSERT_EQ(keys.size(), 2u);
    const unsigned p0 = sched.partitionOf(keys[0]);
    const unsigned p1 = sched.partitionOf(keys[1]);

    // Window 1 load, stopping short of the drop window.
    for (unsigned i = 0; i < 88; ++i) {
        const sim::Tick t = 10 * kUs + i * 10 * kUs; // .. 880 us
        ASSERT_EQ(sched.enqueueAt(
                      t, keyedRequest(t, keys[i % 2], i), nullptr),
                  rack::AdmitResult::Admitted);
    }

    // First arrival past the boundary: the transfer (sent at the
    // 1 ms boundary, inside the drop window) was lost. Fault-safe
    // abort: nothing in flight, nothing frozen, the map untouched.
    sim::Tick at = kMs + 150 * kUs; // 1.15 ms
    unsigned b = 99;
    ASSERT_EQ(sched.enqueueAt(at, keyedRequest(at, keys[0], 500),
                              &b),
              rack::AdmitResult::Admitted);
    EXPECT_EQ(b, hot);
    EXPECT_EQ(sched.summary().migStarted, 1u);
    EXPECT_EQ(sched.summary().migAborted, 1u);
    EXPECT_EQ(sched.migrationsInFlight(), 0u);
    EXPECT_EQ(sched.summary().migCommitted, 0u);
    EXPECT_EQ(sched.homeOf(p0), hot);
    EXPECT_EQ(sched.homeOf(p1), hot);

    // Keep the skew alive through window 2; the 2 ms boundary
    // retries outside the fault window and that attempt commits.
    unsigned i = 0;
    for (at = kMs + 200 * kUs; at <= 2 * kMs + 200 * kUs;
         at += 20 * kUs, ++i)
        ASSERT_EQ(sched.enqueueAt(
                      at, keyedRequest(at, keys[i % 2], 600 + i),
                      nullptr),
                  rack::AdmitResult::Admitted);
    EXPECT_EQ(sched.summary().migStarted, 2u);
    EXPECT_EQ(sched.summary().migAborted, 1u);
    EXPECT_EQ(sched.summary().migCommitted, 1u);
    EXPECT_EQ(sched.migrationsInFlight(), 0u);
    const unsigned h0 = sched.homeOf(p0);
    const unsigned h1 = sched.homeOf(p1);
    EXPECT_TRUE((h0 == hot) != (h1 == hot))
        << "the retry should have re-homed exactly one partition";
    sim::faultPlane().reset();
}

// ----------------------------------------------------------------
// Chaos overlap + the determinism wall
// ----------------------------------------------------------------

TEST(RackBalance, BoardOutageMidMigrationKeepsFullAccounting)
{
    // Take the skew target board down across the post-step windows
    // where hand-offs are in flight: every offered request must
    // still be attributed exactly once, every admitted request
    // must reach exactly one board scheduler, and the whole
    // schedule must replay bit-identically under threads.
    unsigned hot = 0;
    coHomedKeys(1, rack::keyPartitions, 4, &hot);
    const std::string spec =
        "rack.boardDown@p=1,unit=" + std::to_string(hot) +
        ",from=1200000000,to=2500000000";

    rack::RackSummary sum{};
    bool finished = false;
    const auto a =
        runBalancedScenario(1, spec.c_str(), &sum, &finished);
    ASSERT_FALSE(a.counters.empty())
        << "scenario failed validation under the outage";
    EXPECT_TRUE(finished);
    EXPECT_EQ(sum.offered, sum.admitted + sum.rejected +
                               sum.boardsDown + sum.netLost);
    EXPECT_EQ(sum.serving.submitted, sum.admitted)
        << "outage + migration overlap lost or duplicated jobs";
    EXPECT_GE(sum.migStarted, 1u)
        << "the balancer never reacted to the skew step";

    const auto b2 = runBalancedScenario(2, spec.c_str());
    const auto diffs = sim::diffSnapshots(a, b2);
    EXPECT_TRUE(diffs.empty())
        << diffs.size()
        << " stat(s) differ between threads 1 and 2 under the "
           "chaos schedule:\n"
        << sim::formatDiffs(diffs);
}

TEST(RackBalance, TenRunDeterminismWallWithActiveMigrations)
{
    const auto base = runBalancedScenario(1);
    ASSERT_FALSE(base.counters.empty());
    const auto it = base.counters.find("rack.migCommitted");
    ASSERT_NE(it, base.counters.end())
        << "scenario committed no migration — the wall would not "
           "exercise the balancer";
    EXPECT_GE(it->second, 1u);

    const unsigned threads[] = {2, 4, 1, 2, 4, 1, 2, 4, 1};
    for (unsigned i = 0; i < 9; ++i) {
        const auto snap = runBalancedScenario(threads[i]);
        const auto diffs = sim::diffSnapshots(base, snap);
        ASSERT_TRUE(diffs.empty())
            << "run " << i + 2 << " (--threads " << threads[i]
            << "): " << diffs.size() << " stat(s) differ:\n"
            << sim::formatDiffs(diffs);
    }
}
