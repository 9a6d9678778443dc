/**
 * @file
 * Rack-tier tests: the trace generator's determinism and shape,
 * placement/replica purity, admission and failover semantics, and
 * the cluster determinism + golden contract — a fixed 2-board
 * trace-driven serving scenario must produce bit-identical stats
 * across reruns, across --threads counts, and under seeded fault
 * replay, and match the checked-in snapshot in
 * tests/golden/rack.json.
 */

#include <gtest/gtest.h>

#include <vector>

#include "golden.hh"
#include "host/offload.hh"
#include "rack/rack.hh"
#include "rack/scheduler.hh"
#include "rack/trace.hh"
#include "rack/workload.hh"
#include "sim/fault.hh"
#include "sim/rng.hh"
#include "sim/stats.hh"
#include "sim/stats_registry.hh"
#include "topo/topology.hh"
#include "util/zipf.hh"

using namespace dpu;

namespace {

rack::TraceConfig
scenarioTrace()
{
    rack::TraceConfig tc;
    tc.ratePerSec = 4000;
    tc.durationSec = 0.008;
    tc.diurnalPeriodSec = 0.008;
    tc.nApps = unsigned(rack::servingMix().size());
    tc.seed = 21;
    return tc;
}

/**
 * The canonical rack scenario: 2 boards x 2 DPUs, replication 2,
 * the serving mix driven by a fixed arrival trace. Returns the
 * full stats snapshot (plus the rack end tick); empty when serving
 * failed validation.
 */
sim::StatsSnapshot
runRackScenario(unsigned threads = 1, const char *faults = nullptr,
                std::uint64_t fault_seed = 42)
{
    sim::faultPlane().reset();
    if (faults)
        sim::faultPlane().configure(faults, fault_seed);

    auto r = topo::ClusterTopology::rack(2, 2)
                 .threads(threads)
                 .buildRack();
    rack::RackScheduler sched(*r, host::OffloadParams{},
                              rack::PlacementParams{});

    const std::vector<rack::TraceEvent> trace =
        rack::generateTrace(scenarioTrace());
    const std::vector<rack::MixApp> mix = rack::servingMix();
    for (const rack::TraceEvent &ev : trace)
        sched.enqueueAt(ev.at, rack::makeRequest(ev, mix));
    sched.start();
    r->run();

    const rack::RackSummary sum = sched.summary();
    sim::faultPlane().reset();
    if (sum.serving.validationFailed != 0)
        return {};
    sim::StatsSnapshot snap =
        sim::StatsRegistry::instance().snapshot();
    snap.counters["sim.finalTick"] = r->now();
    return snap;
}

/** An @p n_boards x @p dpus rack (the protocol tests never run
 *  it). */
std::unique_ptr<rack::Rack>
smallRack(unsigned n_boards, unsigned dpus)
{
    return topo::ClusterTopology::rack(n_boards, dpus).buildRack();
}

} // namespace

// ----------------------------------------------------------------
// Trace generator
// ----------------------------------------------------------------

TEST(ArrivalTrace, IsSeedDeterministicAndSorted)
{
    const rack::TraceConfig tc = scenarioTrace();
    const auto a = rack::generateTrace(tc);
    const auto b = rack::generateTrace(tc);
    ASSERT_FALSE(a.empty());
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].at, b[i].at);
        EXPECT_EQ(a[i].key, b[i].key);
        EXPECT_EQ(a[i].appIdx, b[i].appIdx);
        EXPECT_EQ(a[i].seed, b[i].seed);
        if (i) {
            EXPECT_GE(a[i].at, a[i - 1].at);
        }
        EXPECT_LT(a[i].appIdx, tc.nApps);
        EXPECT_LT(a[i].key, tc.nKeys);
    }
    rack::TraceConfig other = tc;
    other.seed = 22;
    const auto c = rack::generateTrace(other);
    EXPECT_TRUE(c.size() != a.size() || c[0].seed != a[0].seed);
}

TEST(ArrivalTrace, RateScalesTheEventCount)
{
    rack::TraceConfig lo = scenarioTrace();
    rack::TraceConfig hi = scenarioTrace();
    hi.ratePerSec = lo.ratePerSec * 4;
    const double nLo = double(rack::generateTrace(lo).size());
    const double nHi = double(rack::generateTrace(hi).size());
    ASSERT_GT(nLo, 0);
    EXPECT_NEAR(nHi / nLo, 4.0, 1.0);
}

TEST(ArrivalTrace, ZipfConcentratesMassOnHotKeys)
{
    // The key sampler generateTrace() draws from.
    const std::size_t n = 1 << 16, head = n / 100;
    const util::Zipf z(n, 0.99);
    // Web-like skew: the hottest 1% of keys carry well over a
    // third of the mass; uniform would give them 1%.
    EXPECT_GT(z.headMass(head), 0.35);
    EXPECT_LT(z.headMass(head), 0.95);
    EXPECT_DOUBLE_EQ(z.headMass(n), 1.0);
    EXPECT_EQ(z.headMass(0), 0.0);
    // Draws follow the table.
    sim::Rng rng(7);
    const unsigned draws = 20000;
    unsigned hits = 0;
    for (unsigned i = 0; i < draws; ++i) {
        const std::size_t k = z.sample(rng);
        ASSERT_LT(k, n);
        hits += k < head;
    }
    EXPECT_NEAR(double(hits) / draws, z.headMass(head), 0.02);
    // And the zero-exponent sampler degrades to uniform-ish.
    const util::Zipf u(100, 0.0);
    EXPECT_NEAR(u.headMass(50), 0.5, 0.01);
}

// ----------------------------------------------------------------
// Placement laws at the scheduler level
// ----------------------------------------------------------------

TEST(RackPlacement, ReplicaGroupIsPureAndIndependentOfDpuCount)
{
    sim::faultPlane().reset();
    const auto rs = smallRack(4, 1);
    const auto rb = smallRack(4, 2);
    rack::RackScheduler ss(*rs, {}, {});
    rack::RackScheduler sb(*rb, {}, {});
    for (std::uint64_t k = 0; k < 256; ++k) {
        EXPECT_EQ(ss.partitionOf(k), sb.partitionOf(k));
        EXPECT_EQ(ss.primaryOf(k), sb.primaryOf(k));
        const auto ga = ss.replicasOf(k);
        const auto gb = sb.replicasOf(k);
        ASSERT_EQ(ga.size(), 2u);
        EXPECT_EQ(ga, gb);
        EXPECT_EQ(ga[0], ss.primaryOf(k));
        EXPECT_NE(ga[0], ga[1]);
    }
}

// ----------------------------------------------------------------
// Admission, failover, outage attribution
// ----------------------------------------------------------------

TEST(RackAdmission, WindowCapShedsExcessLoad)
{
    sim::faultPlane().reset();
    const auto rk = smallRack(2, 2);
    rack::Rack &r = *rk;
    rack::PlacementParams place;
    place.replication = 2;
    place.admitWindow = sim::Tick(1'000'000'000); // 1 ms
    place.admitPerWindow = 2;
    rack::RackScheduler sched(r, {}, place);

    // 16 arrivals inside one window, all to the same key: the
    // replica pair can admit 2 each, the rest are rejected.
    unsigned admitted = 0, rejected = 0;
    for (unsigned i = 0; i < 16; ++i) {
        rack::RackRequest req = rack::makeRequest(
            {sim::Tick(i * 1000), 7, 0, 1000 + i},
            rack::servingMix());
        const rack::AdmitResult res =
            sched.enqueueAt(sim::Tick(i * 1000), std::move(req));
        (res == rack::AdmitResult::Admitted ? admitted
                                            : rejected)++;
    }
    EXPECT_EQ(admitted, 4u);
    EXPECT_EQ(rejected, 12u);
    const rack::RackSummary sum = sched.summary();
    EXPECT_EQ(sum.offered, 16u);
    EXPECT_EQ(sum.admitted, 4u);
    EXPECT_EQ(sum.rejected, 12u);
    EXPECT_EQ(sum.boardsDown, 0u);
}

TEST(RackFailover, BoardOutageRedirectsToTheReplica)
{
    sim::faultPlane().reset();
    // Board 0 is down for the whole run.
    sim::faultPlane().configure(
        "rack.boardDown@p=1,unit=0,to=100000000000", 42);
    const auto rk = smallRack(2, 2);
    rack::Rack &r = *rk;
    rack::PlacementParams place;
    place.replication = 2;
    rack::RackScheduler sched(r, {}, place);

    unsigned toBoard1 = 0, offered = 0;
    for (std::uint64_t k = 0; k < 64; ++k) {
        rack::RackRequest req = rack::makeRequest(
            {sim::Tick(k * 1000), k, 0, 500 + k},
            rack::servingMix());
        unsigned board = 99;
        const rack::AdmitResult res = sched.enqueueAt(
            sim::Tick(k * 1000), std::move(req), &board);
        ++offered;
        ASSERT_EQ(res, rack::AdmitResult::Admitted);
        EXPECT_EQ(board, 1u);
        ++toBoard1;
    }
    const rack::RackSummary sum = sched.summary();
    EXPECT_EQ(sum.admitted, offered);
    // Keys whose primary was board 0 count as failovers.
    EXPECT_GT(sum.failovers, 0u);
    EXPECT_LT(sum.failovers, offered);
    sim::faultPlane().reset();
}

TEST(RackFailover, ReplicationOneTurnsOutageIntoLoss)
{
    sim::faultPlane().reset();
    sim::faultPlane().configure(
        "rack.boardDown@p=1,unit=0,to=100000000000", 42);
    const auto rk = smallRack(2, 2);
    rack::Rack &r = *rk;
    rack::PlacementParams place;
    place.replication = 1;
    rack::RackScheduler sched(r, {}, place);

    unsigned lost = 0, admitted = 0;
    for (std::uint64_t k = 0; k < 64; ++k) {
        rack::RackRequest req = rack::makeRequest(
            {sim::Tick(k * 1000), k, 0, 500 + k},
            rack::servingMix());
        const rack::AdmitResult res =
            sched.enqueueAt(sim::Tick(k * 1000), std::move(req));
        (res == rack::AdmitResult::BoardsDown ? lost : admitted)++;
    }
    EXPECT_GT(lost, 0u);
    EXPECT_GT(admitted, 0u);
    EXPECT_EQ(lost + admitted, 64u);
    const rack::RackSummary sum = sched.summary();
    EXPECT_EQ(sum.boardsDown, lost);
    EXPECT_EQ(sum.failovers, 0u);
    sim::faultPlane().reset();
}

TEST(RackNetFaults, DropsFailOverAndExhaustionIsNetLost)
{
    sim::faultPlane().reset();
    sim::faultPlane().configure("rack.netDrop@p=1", 42);
    const auto rk = smallRack(2, 2);
    rack::Rack &r = *rk;
    rack::PlacementParams place;
    place.replication = 2;
    rack::RackScheduler sched(r, {}, place);
    rack::RackRequest req = rack::makeRequest(
        {0, 3, 0, 77}, rack::servingMix());
    // p=1 drop on every delivery: both replicas burn wire time and
    // lose the request.
    EXPECT_EQ(sched.enqueueAt(0, std::move(req)),
              rack::AdmitResult::NetLost);
    const rack::RackSummary sum = sched.summary();
    EXPECT_EQ(sum.netLost, 1u);
    EXPECT_EQ(sum.admitted, 0u);
    EXPECT_EQ(r.net().totals().dropped.msgs, 2u);
    sim::faultPlane().reset();
}

TEST(RackNetFaults, DroppedBytesNeverCountAsCarried)
{
    sim::faultPlane().reset();
    sim::faultPlane().configure("rack.netDrop@p=1", 42);
    const auto rk = smallRack(2, 2);
    rack::Rack &r = *rk;
    rack::PlacementParams place;
    place.replication = 2;
    rack::RackScheduler sched(r, {}, place);
    rack::RackRequest req = rack::makeRequest(
        {0, 3, 0, 77}, rack::servingMix());
    const std::uint64_t payload = req.bytes;
    EXPECT_EQ(sched.enqueueAt(0, std::move(req)),
              rack::AdmitResult::NetLost);
    // Both replica attempts burned wire time but carried nothing:
    // each send lands in exactly one fate class, so the payload is
    // counted dropped and never in the carried / utilization
    // accounting (the xfer_stat split).
    EXPECT_EQ(r.net().totals().offered.msgs, 2u);
    EXPECT_EQ(r.net().totals().dropped.msgs, 2u);
    EXPECT_EQ(r.net().messages(), 0u);
    EXPECT_EQ(r.net().droppedBytes(), 2 * payload);
    EXPECT_EQ(r.net().bytesCarried(), 0u);
    EXPECT_EQ(r.net().migrationBytes(), 0u);
    sim::faultPlane().reset();

    // With the plane quiet the next delivery is carried normally.
    rack::RackRequest ok = rack::makeRequest(
        {1000, 3, 0, 78}, rack::servingMix());
    const std::uint64_t okBytes = ok.bytes;
    EXPECT_EQ(sched.enqueueAt(1000, std::move(ok)),
              rack::AdmitResult::Admitted);
    EXPECT_EQ(r.net().bytesCarried(), okBytes);
    EXPECT_EQ(r.net().droppedBytes(), 2 * payload);
}

TEST(RackAdmission, WindowBoundaryIsHalfOpen)
{
    // The cap covers the half-open window (now - admitWindow, now]:
    // an admission exactly admitWindow old has aged out. Before the
    // fix the front boundary was kept too, so a cap of 1 per 1000
    // ticks actually spanned 1001 ticks.
    sim::faultPlane().reset();
    const auto rk = smallRack(2, 2);
    rack::Rack &r = *rk;
    rack::PlacementParams place;
    place.replication = 1;
    place.admitWindow = 1000;
    place.admitPerWindow = 1;
    rack::RackScheduler sched(r, {}, place);

    auto offer = [&](sim::Tick at) {
        return sched.enqueueAt(
            at, rack::makeRequest({at, 7, 0, at + 1},
                                  rack::servingMix()));
    };
    EXPECT_EQ(offer(0), rack::AdmitResult::Admitted);
    // 999 ticks later the window (−1, 999] still holds tick 0.
    EXPECT_EQ(offer(999), rack::AdmitResult::Rejected);
    // At exactly 1000 the window is (0, 1000]: tick 0 has aged out.
    EXPECT_EQ(offer(1000), rack::AdmitResult::Admitted);
    const rack::RackSummary sum = sched.summary();
    EXPECT_EQ(sum.admitted, 2u);
    EXPECT_EQ(sum.rejected, 1u);
}

TEST(RackAdmission, OutOfOrderFailoverSendsAgeOutOnTime)
{
    // A failover attempt enters its board's window at when + the
    // ack-timeout penalty, so a later direct arrival can enter the
    // same window at an earlier tick. Both must still age out on
    // time: the window cannot assume admissions arrive in order.
    sim::faultPlane().reset();
    sim::faultPlane().configure(
        "rack.boardDown@p=1,unit=0,to=100000000000", 42);
    const auto rk = smallRack(2, 2);
    rack::PlacementParams place;
    place.replication = 2;
    place.admitWindow = sim::Tick(100'000'000); // 100 us
    place.admitPerWindow = 2;
    rack::RackScheduler sched(*rk, {}, place);
    const sim::Tick us = 1'000'000;
    ASSERT_EQ(place.health.ackTimeout, 50 * us);

    auto keyOn = [&](unsigned primary) {
        std::uint64_t k = 0;
        while (sched.primaryOf(k) != primary)
            ++k;
        return k;
    };
    auto offer = [&](sim::Tick at, std::uint64_t key) {
        unsigned board = 99;
        const rack::AdmitResult res = sched.enqueueAt(
            at, rack::makeRequest({at, key, 0, at + 1},
                                  rack::servingMix()),
            &board);
        EXPECT_TRUE(res != rack::AdmitResult::Admitted || board == 1)
            << "board 0 is down";
        return res;
    };
    // A: primary board 0 is down, so it fails over and enters
    // board 1's window at 50 us. B: straight to board 1 at 10 us.
    EXPECT_EQ(offer(0, keyOn(0)), rack::AdmitResult::Admitted);
    EXPECT_EQ(offer(10 * us, keyOn(1)), rack::AdmitResult::Admitted);
    // C at 115 us: the window (15 us, 115 us] holds A alone.
    EXPECT_EQ(offer(115 * us, keyOn(1)), rack::AdmitResult::Admitted);
    EXPECT_EQ(sched.admitWindowDepth(1), 2u);
    const rack::RackSummary sum = sched.summary();
    EXPECT_EQ(sum.admitted, 3u);
    EXPECT_EQ(sum.rejected, 0u);
    EXPECT_EQ(sum.failovers, 1u);
    sim::faultPlane().reset();
}

// ----------------------------------------------------------------
// End-to-end serving through the rack
// ----------------------------------------------------------------

TEST(RackServing, TraceDrivenRunServesEveryAdmittedRequest)
{
    const auto snap = runRackScenario();
    ASSERT_FALSE(snap.counters.empty())
        << "scenario failed validation";
    auto at = [&](const std::string &k) {
        auto it = snap.counters.find(k);
        return it == snap.counters.end() ? std::uint64_t(0)
                                         : it->second;
    };
    EXPECT_GT(at("rack.offered"), 0u);
    EXPECT_EQ(at("rack.offered"),
              at("rack.admitted") + at("rack.rejected") +
                  at("rack.boardsDown") + at("rack.netLost"));
    EXPECT_GT(at("racknet.msgs"), 0u);
}

// ----------------------------------------------------------------
// Determinism + golden
// ----------------------------------------------------------------

TEST(RackDeterminism, RerunsAreBitIdentical)
{
    const auto a = runRackScenario();
    const auto b = runRackScenario();
    ASSERT_FALSE(a.counters.empty());
    const auto diffs = sim::diffSnapshots(a, b);
    EXPECT_TRUE(diffs.empty())
        << diffs.size() << " stat(s) differ across reruns:\n"
        << sim::formatDiffs(diffs);
}

TEST(RackDeterminism, ThreadCountIsInvisible)
{
    const auto serial = runRackScenario(1);
    const auto threaded = runRackScenario(2);
    ASSERT_FALSE(serial.counters.empty());
    const auto diffs = sim::diffSnapshots(serial, threaded);
    EXPECT_TRUE(diffs.empty())
        << diffs.size()
        << " stat(s) differ between --threads 1 and 2:\n"
        << sim::formatDiffs(diffs);
}

TEST(RackDeterminism, FaultReplayIsBitIdentical)
{
    const char *spec =
        "rack.netDrop@p=0.05;rack.netDelay@p=0.1,mag=2000000;"
        "rack.boardDown@p=1,unit=0,from=2000000000,to=4000000000;"
        "link.drop@p=0.01";
    const auto a = runRackScenario(1, spec, 42);
    const auto b = runRackScenario(1, spec, 42);
    ASSERT_FALSE(a.counters.empty())
        << "scenario did not survive the fault schedule";
    const auto diffs = sim::diffSnapshots(a, b);
    EXPECT_TRUE(diffs.empty())
        << diffs.size()
        << " stat(s) differ across seeded fault replays:\n"
        << sim::formatDiffs(diffs);
    // And the schedule must be thread-count-invariant too.
    const auto c = runRackScenario(2, spec, 42);
    const auto tdiffs = sim::diffSnapshots(a, c);
    EXPECT_TRUE(tdiffs.empty())
        << tdiffs.size()
        << " stat(s) differ under faults between threads 1 and 2:\n"
        << sim::formatDiffs(tdiffs);
}

TEST(RackDeterminism, GoldenSnapshotMatches)
{
    test::expectGolden("rack", runRackScenario());
}
