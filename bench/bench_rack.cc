/**
 * @file
 * Rack-scale serving bench: the paper's deployment posture (500+
 * DPUs behind a fabric, Section 6) compressed onto the simulated
 * rack tier.
 *
 *  1. Board scaling curve — an open-loop arrival trace (diurnal
 *     curve + bursts + Zipfian hot keys, rack/trace.hh) drives the
 *     RackScheduler at 1, 2, 4 and 8 boards. Offered load scales
 *     with the board count (weak scaling: fixed requests/sec per
 *     board), so ideal "users served per simulated second" grows
 *     linearly and every deviation is placement skew, ingress
 *     serialization or admission shedding. The run fails (non-zero
 *     exit) when the 2-board rack does not beat 1.6x the 1-board
 *     headline.
 *  2. Fault overlay (--faults "spec") — the 2-board trace replayed
 *     under a seeded fault schedule; reports availability, p99 and
 *     where the lost requests went (board outages vs network drops
 *     vs admission).
 *  3. Skew step — a 4-board rack whose trace collapses most
 *     traffic onto a handful of keys, all of whose partitions hash
 *     onto ONE board, a third of the way in. The same trace runs
 *     twice: static hash placement (the hot board saturates and
 *     sheds) vs the live balancer (hot partitions migrate off over
 *     the rack network). The run fails unless the balanced run
 *     recovers >= 1.3x the static throughput with a lower p99.
 *  4. Outage recovery (--outage, replacing the other sections) —
 *     a 4-board rack provisioned with ~17% admission headroom
 *     loses one board to rack.boardCrash at t = 3 ms. The failure
 *     detector (rack/health.hh) must notice from heartbeats and
 *     missing acks alone, the repair controller promotes the
 *     surviving replicas and re-replicates the lost partitions,
 *     and once the board rejoins the balancer walks load back onto
 *     it. The section gates on detection latency, the rejoin
 *     bound, and the per-millisecond admitted rate in the last two
 *     windows recovering to >= 90% of the pre-outage rate — then
 *     replays the identical scenario nine more times across
 *     --threads {1, 2, 4} as a determinism wall.
 *
 * Racks are built through topo::ClusterTopology — this bench is
 * also the builder's largest consumer. Output: human tables plus
 * one JSON line (last line of stdout) for CI artifact collection
 * (BENCH_rack.json; BENCH_rack_outage.json for --outage).
 */

#include <algorithm>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/report.hh"
#include "board/balance.hh"
#include "host/offload.hh"
#include "rack/health.hh"
#include "rack/rack.hh"
#include "rack/scheduler.hh"
#include "rack/trace.hh"
#include "rack/workload.hh"
#include "sim/fault.hh"
#include "sim/logging.hh"
#include "sim/stats_registry.hh"
#include "topo/topology.hh"

using namespace dpu;

namespace {

struct RackPoint
{
    unsigned nBoards = 0;
    rack::RackSummary sum;
    std::uint64_t traceEvents = 0;
    double speedup = 0; ///< users/simsec vs 1 board
};

/**
 * One trace-driven run on a fresh rack (clean fault plane unless
 * @p faults is non-empty). The master trace is generated once at
 * the max-scale rate; an n-board rack takes every
 * (maxBoards/n)-th event, so offered load is exactly proportional
 * to the board count (weak scaling without realization noise).
 */
RackPoint
traceRun(unsigned n_boards, unsigned max_boards,
         const std::vector<rack::TraceEvent> &master,
         const host::OffloadParams &op,
         const rack::PlacementParams &place, unsigned threads,
         const char *faults)
{
    sim::faultPlane().reset();
    if (faults && *faults)
        sim::faultPlane().configure(faults, 1);

    rack::PlacementParams pl = place;
    pl.replication = std::min(pl.replication, n_boards);
    topo::ClusterTopology topo =
        topo::ClusterTopology::rack(n_boards, 2)
            .placement(pl)
            .threads(threads);
    const std::string err = topo.validate();
    sim_assert(err.empty(), "bench topology invalid: %s",
               err.c_str());
    auto r = topo.buildRack();
    rack::RackScheduler sched(*r, op, pl);

    const unsigned stride = max_boards / n_boards;
    const std::vector<rack::MixApp> mix = rack::servingMix();
    std::uint64_t fed = 0;
    for (std::size_t i = 0; i < master.size(); i += stride) {
        sched.enqueueAt(master[i].at,
                        rack::makeRequest(master[i], mix));
        ++fed;
    }
    sched.start();
    r->run();
    bench::flushTrace();

    RackPoint pt;
    pt.nBoards = n_boards;
    pt.traceEvents = fed;
    pt.sum = sched.summary();
    sim::faultPlane().reset();
    return pt;
}

// ----------------------------------------------------------------
// 4. Outage recovery (--outage)
// ----------------------------------------------------------------

struct OutageRun
{
    rack::RackSummary sum;
    sim::StatsSnapshot snap;
    /** Front-end arrivals / admissions per 1 ms window. The gate
     *  compares per-window served fractions, not raw counts — the
     *  Poisson trace realizes ~±10% arrival noise per window,
     *  which would drown a 90% floor on raw admitted rates. */
    std::vector<std::uint64_t> offeredWin;
    std::vector<std::uint64_t> admittedWin;
    sim::Tick downAt = 0;   ///< crash board declared Down
    sim::Tick rejoinAt = 0; ///< crash board back to Healthy
    bool finished = false;
};

/** The outage scenario: 4 boards x 2 DPUs with ~17% admission
 *  headroom, detection + repair + balancer live, one board killed
 *  by rack.boardCrash at @p crash_at. A flat trace (no diurnal
 *  swing, no bursts) so per-window admitted rates compare like
 *  with like. */
OutageRun
outageRun(unsigned threads, bool smoke, unsigned crash_board,
          sim::Tick crash_at)
{
    const std::string spec =
        "rack.boardCrash@p=1,unit=" + std::to_string(crash_board) +
        ",from=" + std::to_string(crash_at) + ",max=1";
    sim::faultPlane().reset();
    sim::faultPlane().configure(spec.c_str(), 1);

    // Offered load sits at ~86% of the rack's admission capacity:
    // losing one board of four drops capacity below the offered
    // rate, so the outage is visible as admission loss until the
    // board rejoins and the balancer walks load back onto it.
    rack::PlacementParams pl;
    pl.replication = 2;
    pl.admitWindow = sim::Tick(1'000'000'000); // 1 ms
    pl.admitPerWindow = smoke ? 12 : 35;
    pl.balance.window = sim::Tick(500'000'000);
    pl.balance.ewmaAlpha = 0.7;
    pl.balance.hotFactor = 1.1;
    pl.balance.maxMigrationsPerWindow = 3;
    pl.balance.minPartitionLoad = 1.0;
    pl.health.heartbeatPeriod = sim::Tick(200'000'000); // 200 us
    pl.health.ackTimeout = sim::Tick(50'000'000);       // 50 us
    pl.health.suspectAfter = 2;
    pl.health.downAfter = 4;
    pl.health.rejoinAfter = 3;

    topo::ClusterTopology topo = topo::ClusterTopology::rack(4, 2)
                                     .placement(pl)
                                     .threads(threads);
    const std::string err = topo.validate();
    sim_assert(err.empty(), "outage topology invalid: %s",
               err.c_str());
    auto r = topo.buildRack();
    rack::RackScheduler sched(*r, host::OffloadParams{}, pl);

    rack::TraceConfig tc;
    tc.ratePerSec = smoke ? 40'000 : 120'000;
    tc.durationSec = 0.01;
    tc.diurnalAmp = 0;
    tc.burstsPerSec = 0;
    tc.seed = 19;
    tc.nApps = unsigned(rack::servingMix().size());
    const std::vector<rack::TraceEvent> trace =
        rack::generateTrace(tc);

    const sim::Tick win = sim::Tick(1'000'000'000);
    OutageRun out;
    out.offeredWin.assign(10, 0);
    out.admittedWin.assign(10, 0);
    const std::vector<rack::MixApp> mix = rack::servingMix();
    for (const rack::TraceEvent &ev : trace) {
        const rack::AdmitResult res =
            sched.enqueueAt(ev.at, rack::makeRequest(ev, mix));
        const std::size_t w = std::size_t(ev.at / win);
        if (w < out.offeredWin.size()) {
            ++out.offeredWin[w];
            if (res == rack::AdmitResult::Admitted)
                ++out.admittedWin[w];
        }
    }
    sched.start();
    r->run();
    bench::flushTrace();

    out.finished = r->allFinished();
    out.sum = sched.summary();
    for (const rack::HealthTransition &t :
         sched.health().transitions()) {
        if (t.board != crash_board)
            continue;
        if (!out.downAt && t.to == rack::BoardHealth::Down)
            out.downAt = t.at;
        else if (out.downAt && !out.rejoinAt &&
                 t.from == rack::BoardHealth::Probation &&
                 t.to == rack::BoardHealth::Healthy)
            out.rejoinAt = t.at;
    }
    sim::faultPlane().reset();
    out.snap = sim::StatsRegistry::instance().snapshot();
    out.snap.counters["sim.finalTick"] = r->now();
    return out;
}

/** The --outage entry point (runs instead of the other sections). */
int
outageMain(bool smoke, unsigned threads)
{
    const unsigned crash_board = 1;
    const sim::Tick crash_at = sim::Tick(3'000'000'000); // 3 ms

    bench::header("rack outage recovery",
                  "board 1 of 4 crashes at 3 ms; detect from "
                  "heartbeats, promote survivors, re-replicate, "
                  "rejoin, rebalance");

    OutageRun run = outageRun(threads, smoke, crash_board,
                              crash_at);
    bool ok = run.finished &&
              run.sum.serving.validationFailed == 0 &&
              run.sum.serving.completed > 0;

    bench::row("  %8s %s", "window",
               "admitted / offered per 1 ms slice");
    std::vector<double> frac(run.offeredWin.size(), 0);
    for (std::size_t w = 0; w < run.offeredWin.size(); ++w) {
        frac[w] = run.offeredWin[w]
                      ? double(run.admittedWin[w]) /
                            double(run.offeredWin[w])
                      : 0;
        bench::row("  %7zums %4llu / %4llu  (%.3f)%s", w,
                   (unsigned long long)run.admittedWin[w],
                   (unsigned long long)run.offeredWin[w], frac[w],
                   w == 3 ? "   <- crash" : "");
    }

    // Pre-outage served fraction over the three whole windows
    // before the crash; recovered fraction over the last two. The
    // dip between them is the outage cost the report quotes.
    double pre = 0, tail = 0, dip = 2.0;
    for (unsigned w = 0; w < 3; ++w)
        pre += frac[w] / 3;
    for (unsigned w = 8; w < 10; ++w)
        tail += frac[w] / 2;
    for (unsigned w = 3; w < 8; ++w)
        dip = std::min(dip, frac[w]);
    const double recovery = pre > 0 ? tail / pre : 0;

    const double detectMs =
        run.downAt ? double(run.downAt - crash_at) / 1e9 : -1;
    const double rejoinMs =
        run.rejoinAt ? double(run.rejoinAt - crash_at) / 1e9 : -1;
    bench::row("  detected Down %.2f ms after the crash; back to "
               "Healthy %.2f ms after (repairs %llu started, "
               "%llu committed)",
               detectMs, rejoinMs,
               (unsigned long long)run.sum.repairsStarted,
               (unsigned long long)run.sum.repairsCommitted);
    bench::row("  served fraction: pre %.3f, dip %.3f, tail %.3f "
               "-> recovery %.2fx (failovers %llu, reroutes %llu, "
               "rejected %llu, boardsDown %llu)",
               pre, dip, tail, recovery,
               (unsigned long long)run.sum.failovers,
               (unsigned long long)run.sum.admitReroutes,
               (unsigned long long)run.sum.rejected,
               (unsigned long long)run.sum.boardsDown);

    // Gates: detection within the hysteresis bound, rejoin (which
    // requires every repair to have committed) within 2.5 ms, and
    // the recovery floor.
    // downAfter heartbeat rounds plus two ack timeouts, matching
    // the knobs outageRun sets (4 x 200 us + 2 x 50 us).
    const double gateRecovery = 0.9;
    const sim::Tick detectBound =
        4 * sim::Tick(200'000'000) + 2 * sim::Tick(50'000'000);
    if (!run.downAt || run.downAt - crash_at > detectBound) {
        bench::row("  FAIL: detection outside the %.2f ms "
                   "hysteresis bound",
                   double(detectBound) / 1e9);
        ok = false;
    }
    if (!run.rejoinAt ||
        run.rejoinAt - crash_at > sim::Tick(2'500'000'000)) {
        bench::row("  FAIL: the crashed board never rejoined "
                   "within 2.5 ms");
        ok = false;
    }
    if (run.sum.repairsCommitted == 0) {
        bench::row("  FAIL: no re-replication committed");
        ok = false;
    }
    if (recovery < gateRecovery) {
        bench::row("  FAIL: tail served fraction %.2fx of "
                   "pre-outage < %.2fx floor",
                   recovery, gateRecovery);
        ok = false;
    }

    // Determinism wall: the identical scenario nine more times
    // across worker-thread counts must replay every stat
    // bit-identically.
    const unsigned wall[] = {2, 4, 1, 2, 4, 1, 2, 4, 1};
    unsigned wallFailures = 0;
    for (unsigned i = 0; i < 9; ++i) {
        OutageRun rerun =
            outageRun(wall[i], smoke, crash_board, crash_at);
        const auto diffs =
            sim::diffSnapshots(run.snap, rerun.snap);
        if (!diffs.empty()) {
            ++wallFailures;
            bench::row("  FAIL: wall run %u (--threads %u): %zu "
                       "stat(s) differ",
                       i + 2, wall[i], diffs.size());
        }
    }
    bench::row("  determinism wall: 10 runs across --threads "
               "{1,2,4}, %u mismatch(es)",
               wallFailures);
    ok = ok && wallFailures == 0;

    {
        bench::Json j;
        j.field("bench", "rack_outage");
        j.field("smoke", std::uint64_t(smoke));
        j.field("nBoards", std::uint64_t(4));
        j.field("crashBoard", std::uint64_t(crash_board));
        j.field("crashAtMs", double(crash_at) / 1e9);
        j.field("preServedFraction", pre);
        j.field("dipServedFraction", dip);
        j.field("tailServedFraction", tail);
        j.field("recovery", recovery);
        j.field("gateRecovery", gateRecovery);
        j.field("detectMs", detectMs);
        j.field("rejoinMs", rejoinMs);
        j.field("probes", run.sum.probes);
        j.field("repairsStarted", run.sum.repairsStarted);
        j.field("repairsCommitted", run.sum.repairsCommitted);
        j.field("failovers", run.sum.failovers);
        j.field("admitReroutes", run.sum.admitReroutes);
        j.field("shed", run.sum.shed);
        j.field("boardsDown", run.sum.boardsDown);
        j.field("netLost", run.sum.netLost);
        j.field("rejected", run.sum.rejected);
        j.field("migCommitted", run.sum.migCommitted);
        j.field("determinismRuns", std::uint64_t(10));
        j.field("determinismFailures",
                std::uint64_t(wallFailures));
        j.field("pass", std::uint64_t(ok));
    }

    if (!ok) {
        std::fprintf(stderr,
                     "bench_rack: FAILED outage gates\n");
        return 1;
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const bool smoke = bench::smokeRun(argc, argv);
    const char *faults =
        bench::argValue(argc, argv, "--faults", "");
    // Boards run sequentially, so per-board worker threads only
    // help on long boards; serial epochs are the cheap default.
    const unsigned threads = unsigned(std::strtoul(
        bench::argValue(argc, argv, "--threads", "1"), nullptr, 0));

    if (bench::flag(argc, argv, "--outage"))
        return outageMain(smoke, threads);

    // The arrival shape: one simulated "day" of 10 ms with a 50%
    // diurnal swing, 3x bursts and web-like key skew, generated
    // once at the 8-board rate and subsampled per point.
    const unsigned max_boards = 8;
    rack::TraceConfig tc;
    tc.ratePerSec = (smoke ? 800 : 2400) * max_boards;
    tc.durationSec = 0.01;
    tc.diurnalPeriodSec = 0.01;
    tc.seed = 7;
    tc.nApps = unsigned(rack::servingMix().size());
    const std::vector<rack::TraceEvent> master =
        rack::generateTrace(tc);

    host::OffloadParams op; // default queue/deadline policy
    rack::PlacementParams place;
    place.replication = 2;

    // ------------------------------------------------------------
    // 1. Board scaling curve
    // ------------------------------------------------------------
    bench::header("rack scaling",
                  "trace-driven serving at 1/2/4/8 boards "
                  "(2 DPUs each, replication 2)");
    bench::row("  %6s %8s %9s %10s %8s %8s %9s %8s", "boards",
               "offered", "admitted", "users/s", "p99 us",
               "avail", "netPeak", "speedup");

    std::vector<RackPoint> curve;
    bool ok = true;
    for (unsigned n : {1u, 2u, 4u, 8u}) {
        RackPoint pt = traceRun(n, max_boards, master, op, place,
                                threads, "");
        const host::ServingSummary &s = pt.sum.serving;
        ok = ok && s.completed > 0 && s.validationFailed == 0;
        curve.push_back(pt);
    }
    const double base = curve.front().sum.usersPerSimSec;
    for (RackPoint &pt : curve) {
        pt.speedup =
            base > 0 ? pt.sum.usersPerSimSec / base : 0;
        bench::row(
            "  %6u %8llu %9llu %10.3g %8.1f %7.3f %8.1f%% %7.2fx",
            pt.nBoards, (unsigned long long)pt.sum.offered,
            (unsigned long long)pt.sum.admitted,
            pt.sum.usersPerSimSec, pt.sum.serving.p99Us,
            pt.sum.serving.availability,
            pt.sum.netPeakUtilization * 100, pt.speedup);
    }
    // Regression gate, not a flaky threshold: simulated time is
    // deterministic.
    const double gate2 = 1.6;
    if (curve[1].speedup <= gate2) {
        bench::row("  FAIL: 2-board speedup %.2fx <= %.2fx gate",
                   curve[1].speedup, gate2);
        ok = false;
    }
    bench::row("  headline: %.3g users served per simulated "
               "second on %u boards (%llu of %llu offered)",
               curve.back().sum.usersPerSimSec,
               curve.back().nBoards,
               (unsigned long long)curve.back().sum.serving.completed,
               (unsigned long long)curve.back().sum.offered);

    // ------------------------------------------------------------
    // 2. Fault overlay (optional)
    // ------------------------------------------------------------
    RackPoint faulted;
    bool ran_faulted = false;
    if (*faults) {
        bench::header("rack under faults", faults);
        faulted = traceRun(2, max_boards, master, op, place,
                           threads, faults);
        ran_faulted = true;
        const rack::RackSummary &fs = faulted.sum;
        ok = ok && fs.serving.completed > 0;
        bench::row("  served %.1f%% of %llu offered "
                   "(boardsDown %llu, netLost %llu, rejected %llu, "
                   "failovers %llu)",
                   fs.servedFraction * 100,
                   (unsigned long long)fs.offered,
                   (unsigned long long)fs.boardsDown,
                   (unsigned long long)fs.netLost,
                   (unsigned long long)fs.rejected,
                   (unsigned long long)fs.failovers);
        bench::row("  p99 %.1f us  availability %.3f  "
                   "%.3g users/s",
                   fs.serving.p99Us, fs.serving.availability,
                   fs.usersPerSimSec);
    }

    // ------------------------------------------------------------
    // 3. Skew step: static placement vs live rebalancing
    // ------------------------------------------------------------
    const unsigned skew_boards = 4;
    rack::PlacementParams staticPlace;
    staticPlace.replication = 2;

    // Hot keys: distinct partitions, every one of them hash-homed
    // on the same board, so the step lands a partition *group* on
    // one ingress (moving a single partition could only relocate,
    // never spread, the hot spot).
    const unsigned hot_board =
        board::hashHome(0, skew_boards);
    std::vector<std::uint64_t> hotKeys;
    std::vector<char> seen(rack::keyPartitions, 0);
    for (std::uint64_t k = 0; hotKeys.size() < 8 && k < 1 << 16;
         ++k) {
        const unsigned part =
            rack::keyPartition(k, rack::keyPartitions);
        if (seen[part] ||
            board::hashHome(part, skew_boards) != hot_board)
            continue;
        seen[part] = 1;
        hotKeys.push_back(k);
    }
    sim_assert(hotKeys.size() == 8,
               "key probe found only %zu co-homed partitions",
               hotKeys.size());

    // Much hotter than the scaling trace: the step must overrun
    // one board's DPU service capacity (~tens of kreq/s) for
    // placement to matter at all.
    rack::TraceConfig stc;
    stc.ratePerSec = 125'000.0 * skew_boards;
    stc.durationSec = 0.01;
    stc.diurnalPeriodSec = 0.01;
    stc.zipf = 0.6; // mild base skew; the step supplies the heat
    stc.seed = 11;
    stc.nApps = unsigned(rack::servingMix().size());
    stc.hotStepAtSec = 0.002;
    stc.hotStepFraction = 0.9;
    stc.hotStepKeys = hotKeys;
    const std::vector<rack::TraceEvent> skewMaster =
        rack::generateTrace(stc);

    rack::PlacementParams balPlace = staticPlace;
    balPlace.balance.window = sim::Tick(500'000'000); // 0.5 ms
    balPlace.balance.ewmaAlpha = 0.7;
    balPlace.balance.hotFactor = 1.1;
    balPlace.balance.maxMigrationsPerWindow = 3;
    balPlace.balance.minPartitionLoad = 2.0;

    bench::header("rack skew step",
                  "90% of traffic onto 8 partitions co-homed on "
                  "one of 4 boards at t=2ms; static vs balanced");
    RackPoint skewStatic =
        traceRun(skew_boards, skew_boards, skewMaster, op,
                 staticPlace, threads, "");
    RackPoint skewBal =
        traceRun(skew_boards, skew_boards, skewMaster, op,
                 balPlace, threads, "");
    const double recovery =
        skewStatic.sum.usersPerSimSec > 0
            ? skewBal.sum.usersPerSimSec /
                  skewStatic.sum.usersPerSimSec
            : 0;
    bench::row("  %9s %9s %10s %9s %9s %9s", "placement",
               "admitted", "users/s", "p99 us", "migrations",
               "forwarded");
    bench::row("  %9s %9llu %10.3g %9.1f %9llu %9llu", "static",
               (unsigned long long)skewStatic.sum.admitted,
               skewStatic.sum.usersPerSimSec,
               skewStatic.sum.serving.p99Us,
               (unsigned long long)skewStatic.sum.migCommitted,
               (unsigned long long)skewStatic.sum.forwarded);
    bench::row("  %9s %9llu %10.3g %9.1f %9llu %9llu", "balanced",
               (unsigned long long)skewBal.sum.admitted,
               skewBal.sum.usersPerSimSec,
               skewBal.sum.serving.p99Us,
               (unsigned long long)skewBal.sum.migCommitted,
               (unsigned long long)skewBal.sum.forwarded);
    bench::row("  recovery %.2fx throughput, p99 %.1f -> %.1f us, "
               "%llu KB of state migrated",
               recovery, skewStatic.sum.serving.p99Us,
               skewBal.sum.serving.p99Us,
               (unsigned long long)(skewBal.sum.migrationBytes >>
                                    10));
    const double gateRecovery = 1.3;
    if (skewBal.sum.migCommitted == 0) {
        bench::row("  FAIL: the balancer committed no migrations");
        ok = false;
    }
    if (recovery < gateRecovery) {
        bench::row("  FAIL: skew recovery %.2fx < %.2fx gate",
                   recovery, gateRecovery);
        ok = false;
    }
    if (skewBal.sum.serving.p99Us >=
        skewStatic.sum.serving.p99Us) {
        bench::row("  FAIL: balanced p99 %.1f us did not improve "
                   "on static %.1f us",
                   skewBal.sum.serving.p99Us,
                   skewStatic.sum.serving.p99Us);
        ok = false;
    }

    // ------------------------------------------------------------
    // JSON (last line of stdout)
    // ------------------------------------------------------------
    {
        bench::Json j;
        j.field("bench", "rack");
        j.field("smoke", std::uint64_t(smoke));
        j.field("dpusPerBoard", std::uint64_t(2));
        j.field("replication",
                std::uint64_t(place.replication));
        j.arr("scaling");
        for (const RackPoint &pt : curve) {
            j.elem();
            j.field("nBoards", std::uint64_t(pt.nBoards));
            j.field("offered", pt.sum.offered);
            j.field("admitted", pt.sum.admitted);
            j.field("completed", pt.sum.serving.completed);
            j.field("usersPerSimSec", pt.sum.usersPerSimSec);
            j.field("servedFraction", pt.sum.servedFraction);
            j.field("p50Us", pt.sum.serving.p50Us);
            j.field("p99Us", pt.sum.serving.p99Us);
            j.field("availability", pt.sum.serving.availability);
            j.field("netPeakUtilization",
                    pt.sum.netPeakUtilization);
            j.field("speedup", pt.speedup);
            j.end();
        }
        j.end();
        j.field("gate2", gate2);
        j.field("usersPerSimSec",
                curve.back().sum.usersPerSimSec);
        if (ran_faulted) {
            j.obj("faulted");
            j.field("spec", faults);
            j.field("offered", faulted.sum.offered);
            j.field("servedFraction", faulted.sum.servedFraction);
            j.field("boardsDown", faulted.sum.boardsDown);
            j.field("netLost", faulted.sum.netLost);
            j.field("rejected", faulted.sum.rejected);
            j.field("failovers", faulted.sum.failovers);
            j.field("p99Us", faulted.sum.serving.p99Us);
            j.field("availability",
                    faulted.sum.serving.availability);
            j.field("usersPerSimSec", faulted.sum.usersPerSimSec);
            j.end();
        }
        j.obj("skew");
        j.field("nBoards", std::uint64_t(skew_boards));
        j.field("hotPartitions", std::uint64_t(hotKeys.size()));
        j.field("staticUsersPerSimSec",
                skewStatic.sum.usersPerSimSec);
        j.field("balancedUsersPerSimSec",
                skewBal.sum.usersPerSimSec);
        j.field("recovery", recovery);
        j.field("gateRecovery", gateRecovery);
        j.field("staticP99Us", skewStatic.sum.serving.p99Us);
        j.field("balancedP99Us", skewBal.sum.serving.p99Us);
        j.field("migStarted", skewBal.sum.migStarted);
        j.field("migCommitted", skewBal.sum.migCommitted);
        j.field("migAborted", skewBal.sum.migAborted);
        j.field("forwarded", skewBal.sum.forwarded);
        j.field("migrationBytes", skewBal.sum.migrationBytes);
        j.end();
        j.field("pass", std::uint64_t(ok));
    }

    if (!ok) {
        std::fprintf(stderr, "bench_rack: FAILED gates\n");
        return 1;
    }
    return 0;
}
