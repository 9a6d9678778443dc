/**
 * @file
 * Multi-DPU board scaling bench. The paper deployed the chip as a
 * many-DPU in-memory database appliance (Section 6: "a single
 * board carries multiple DPUs behind one host"); this bench is the
 * repro of that posture on the simulated board fabric:
 *
 *  1. Sharded SQL partition/join scaling — the hash-partitioned
 *     table workload of board_apps.hh at 1, 2 and 4 DPUs. Work per
 *     DPU is fixed (weak scaling), so ideal aggregate throughput
 *     grows linearly with board size and every deviation is
 *     cross-DPU exchange cost on the modelled links. The run
 *     fails (non-zero exit) when the 2-DPU board does not beat
 *     1.6x or the 4-DPU board 2.5x of single-chip throughput.
 *  2. Distributed HLL — per-DPU sketches merged across the fabric,
 *     reported against the true distinct count.
 *  3. Board serving — the request mix flows through the sharded
 *     BoardScheduler (hash routing) on a 2-DPU board; reports
 *     board-wide tail latency and availability.
 *  4. Skew step (--skew-step, replacing the other sections) — a
 *     keyed stream on a 4-DPU board steps 90% of its traffic onto
 *     the partitions co-homed on one DPU a quarter of the way in.
 *     Static placement eats the hot spot; the board balancer
 *     (the topology's boardBalance) re-homes partitions live over the
 *     real DMS descriptor + link-fabric path. Gates: >= 1.3x
 *     throughput recovery over static, at least one committed
 *     migration, and byte-identical migrated partition images.
 *
 * Output: human tables plus one JSON line (last line of stdout)
 * for CI artifact collection (BENCH_board.json;
 * BENCH_board_skew.json for --skew-step).
 */

#include <chrono>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench/report.hh"
#include "board/board.hh"
#include "board/board_apps.hh"
#include "host/board_offload.hh"
#include "rack/workload.hh"
#include "sim/fault.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"
#include "topo/topology.hh"

// ThreadSanitizer slows the parallel run's barrier spins and event
// loops by other factors than the serial run's, so under it the
// wall speedup measures the instrumentation, not the epoch runner.
#if defined(__SANITIZE_THREAD__)
#define DPU_BENCH_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define DPU_BENCH_TSAN 1
#endif
#endif
#ifndef DPU_BENCH_TSAN
#define DPU_BENCH_TSAN 0
#endif

using namespace dpu;

namespace {

struct SqlPoint
{
    unsigned nDpus = 0;
    board::ShardedSqlResult res;
    double speedup = 0; ///< aggregate throughput vs 1 DPU
};

/** One sharded-SQL run on a fresh board (clean fault plane). */
board::ShardedSqlResult
sqlRun(unsigned n_dpus, const board::ShardedSqlConfig &cfg)
{
    sim::faultPlane().reset();
    const auto b = topo::ClusterTopology::board(n_dpus).buildBoard();
    return board::runShardedSql(*b, cfg);
}

double
wallNow()
{
    using clk = std::chrono::steady_clock;
    return std::chrono::duration<double>(
               clk::now().time_since_epoch())
        .count();
}

struct ParallelPoint
{
    unsigned threads = 1;
    double wallSec = 0;
    std::uint64_t epochs = 0;
    board::ShardedSqlResult res;
};

/** The 4-DPU SQL workload on @p threads worker threads, wall-timed.
 *  Simulated results are thread-count-invariant (the determinism
 *  tests pin that); only the wall clock moves. */
ParallelPoint
parallelRun(unsigned threads, const board::ShardedSqlConfig &cfg)
{
    sim::faultPlane().reset();
    const auto b =
        topo::ClusterTopology::board(4).threads(threads).buildBoard();
    ParallelPoint pt;
    pt.threads = threads;
    const double t0 = wallNow();
    pt.res = board::runShardedSql(*b, cfg);
    pt.wallSec = wallNow() - t0;
    pt.epochs = b->runnerStats().epochs;
    return pt;
}

// ----------------------------------------------------------------
// 4. Skew step (--skew-step)
// ----------------------------------------------------------------

struct SkewRun
{
    host::ServingSummary sum;
    sim::Tick end = 0;
    board::BoardBalancer::Report rep; ///< zeroes on the static run
    std::uint64_t migrationBytes = 0;
    unsigned reassigned = 0;
    bool imagesIntact = true;
    std::uint64_t rejected = 0;
};

/** A fixed-cost serving job (lanes sleep ~20 us): capacity per DPU
 *  is then a pure function of the overheads, so the step's overload
 *  factor is deterministic. */
host::JobRequest
stepJob()
{
    host::JobRequest req;
    req.makeJob = [](const apps::ServingContext &) {
        apps::ServingJob job;
        job.stage = [] {};
        job.lane = [](core::DpCore &c, unsigned) {
            c.sleepCycles(16000); // 20 us at 800 MHz
        };
        return job;
    };
    return req;
}

/** One 4-DPU skew-step run. @p balanced turns the board balancer
 *  on; the offered keyed stream is identical either way. */
SkewRun
skewRun(bool balanced, unsigned threads, sim::Tick duration,
        unsigned n_jobs)
{
    sim::faultPlane().reset();
    const unsigned key_parts = 16;
    board::BalanceParams bal;
    bal.keyPartitions = key_parts;
    if (balanced) {
        bal.window = sim::Tick(250'000'000); // 0.25 ms
        bal.ewmaAlpha = 0.7;
        bal.hotFactor = 1.1;
        bal.maxMigrationsPerWindow = 2;
        bal.minPartitionLoad = 2.0;
    }
    const auto brd = topo::ClusterTopology::board(4)
                         .threads(threads)
                         .boardBalance(bal)
                         .buildBoard();
    board::Board &b = *brd;
    host::OffloadParams op;
    op.nCores = 8; // the balancer's engine core stays unmanaged
    op.groupSize = 4;
    op.queueDepth = 1024; // the hot shard must queue, not reject
    host::BoardScheduler sched(b, op, host::makeHashRouter());

    // Hot keys: the partitions co-homed on one DPU, so the step
    // lands a partition group on one shard (the rack bench's
    // probe, one tier down). Key k < keyPartitions IS partition k.
    const unsigned hot_dpu = sched.partitions().homeOf(0, 4);
    std::vector<std::uint64_t> hot;
    for (unsigned p = 0; p < key_parts; ++p)
        if (sched.partitions().homeOf(p, 4) == hot_dpu)
            hot.push_back(p);
    sim_assert(!hot.empty(), "no partition co-homed on DPU %u",
               hot_dpu);

    // Pre-step the keys sweep every partition evenly; from the
    // step on, 90% of arrivals hammer the hot group.
    const sim::Tick step_at = duration / 4;
    const sim::Tick gap = duration / n_jobs;
    for (unsigned i = 0; i < n_jobs; ++i) {
        const sim::Tick at = sim::Tick(i) * gap;
        const bool hot_key = at >= step_at && i % 10 < 9;
        const std::uint64_t key =
            hot_key ? hot[i % hot.size()] : i % key_parts;
        sched.offer(at, key, stepJob());
    }
    SkewRun out;
    out.end = sched.run();
    out.sum = sched.summary();
    out.rejected = out.sum.rejected;
    out.migrationBytes = b.fabric().migrationBytes();
    out.reassigned = sched.partitions().reassignedCount();
    if (balanced) {
        const board::BoardBalancer &bal = *sched.balancer();
        out.rep = bal.report();
        for (unsigned p = 0; p < key_parts && out.imagesIntact;
             ++p) {
            const auto img = bal.stateImage(p);
            for (std::uint64_t i = 0; i < img.size(); ++i)
                if (img[i] !=
                    board::BoardBalancer::statePattern(p, i)) {
                    out.imagesIntact = false;
                    break;
                }
        }
    }
    sim::faultPlane().reset();
    return out;
}

/** The --skew-step entry point (runs instead of the other
 *  sections). */
int
skewMain(bool smoke, unsigned threads)
{
    const sim::Tick duration =
        smoke ? sim::Tick(3'000'000'000)     // 3 ms, 12 windows
              : sim::Tick(4'500'000'000);    // 4.5 ms, 18 windows
    const unsigned n_jobs = smoke ? 600 : 900; // ~200k jobs/s

    bench::header("board skew step",
                  "90% of keyed traffic onto one DPU's partitions "
                  "a quarter of the way in; static vs balanced");
    const SkewRun sstat = skewRun(false, threads, duration, n_jobs);
    const SkewRun sbal = skewRun(true, threads, duration, n_jobs);

    const double recovery =
        sstat.sum.throughputJobsPerSec > 0
            ? sbal.sum.throughputJobsPerSec /
                  sstat.sum.throughputJobsPerSec
            : 0;
    bench::row("  %9s %9s %10s %9s %9s %10s", "placement", "done",
               "jobs/s", "p99 us", "commits", "stateKB");
    bench::row("  %9s %9llu %10.3g %9.1f %9s %10s", "static",
               (unsigned long long)sstat.sum.completed,
               sstat.sum.throughputJobsPerSec, sstat.sum.p99Us,
               "-", "-");
    bench::row("  %9s %9llu %10.3g %9.1f %9llu %10llu", "balanced",
               (unsigned long long)sbal.sum.completed,
               sbal.sum.throughputJobsPerSec, sbal.sum.p99Us,
               (unsigned long long)sbal.rep.committed,
               (unsigned long long)(sbal.rep.stateBytes >> 10));
    bench::row("  recovery %.2fx throughput, p99 %.1f -> %.1f us, "
               "%llu forwarded deltas, %llu retries",
               recovery, sstat.sum.p99Us, sbal.sum.p99Us,
               (unsigned long long)sbal.rep.forwarded,
               (unsigned long long)sbal.rep.chunkRetries);

    bool ok = true;
    const double gate_recovery = 1.3;
    if (sbal.rep.committed == 0) {
        bench::row("  FAIL: the balancer committed no migrations");
        ok = false;
    }
    if (recovery < gate_recovery) {
        bench::row("  FAIL: skew recovery %.2fx < %.2fx gate",
                   recovery, gate_recovery);
        ok = false;
    }
    if (!sbal.imagesIntact) {
        bench::row("  FAIL: a migrated partition image diverged "
                   "from its seed pattern");
        ok = false;
    }
    if (sstat.sum.completed != n_jobs ||
        sbal.sum.completed != n_jobs) {
        bench::row("  FAIL: jobs lost (static %llu, balanced %llu "
                   "of %u)",
                   (unsigned long long)sstat.sum.completed,
                   (unsigned long long)sbal.sum.completed, n_jobs);
        ok = false;
    }

    {
        bench::Json j;
        j.field("bench", "board_skew");
        j.field("smoke", std::uint64_t(smoke));
        j.field("nDpus", std::uint64_t(4));
        j.field("jobs", std::uint64_t(n_jobs));
        j.field("staticJobsPerSec",
                sstat.sum.throughputJobsPerSec);
        j.field("balancedJobsPerSec",
                sbal.sum.throughputJobsPerSec);
        j.field("recovery", recovery);
        j.field("gateRecovery", gate_recovery);
        j.field("staticP99Us", sstat.sum.p99Us);
        j.field("balancedP99Us", sbal.sum.p99Us);
        j.field("migPlanned", sbal.rep.planned);
        j.field("migCommitted", sbal.rep.committed);
        j.field("migAborted", sbal.rep.aborted);
        j.field("chunkRetries", sbal.rep.chunkRetries);
        j.field("forwarded", sbal.rep.forwarded);
        j.field("deltaBytes", sbal.rep.deltaBytes);
        j.field("stateBytes", sbal.rep.stateBytes);
        j.field("migrationBytes", sbal.migrationBytes);
        j.field("reassigned", std::uint64_t(sbal.reassigned));
        j.field("imagesIntact",
                std::uint64_t(sbal.imagesIntact));
        j.field("pass", std::uint64_t(ok));
    }

    if (!ok) {
        std::fprintf(stderr, "bench_board: FAILED skew gates\n");
        return 1;
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const bool smoke = bench::smokeRun(argc, argv);
    if (bench::flag(argc, argv, "--skew-step"))
        return skewMain(smoke,
                        unsigned(std::strtoul(
                            bench::argValue(argc, argv, "--threads",
                                            "2"),
                            nullptr, 0)));
    const char *faults =
        bench::argValue(argc, argv, "--faults", "");

    board::ShardedSqlConfig scfg;
    scfg.rowsPerDpu = smoke ? (1u << 12) : (1u << 15);

    // ------------------------------------------------------------
    // 1. Sharded SQL scaling curve
    // ------------------------------------------------------------
    bench::header("board scaling",
                  "hash-partitioned SQL across 1/2/4 DPUs");
    bench::row("  %5s %10s %12s %10s %9s %8s", "dpus", "rows",
               "rows/s", "seconds", "linkPeak", "speedup");

    std::vector<SqlPoint> curve;
    bool ok = true;
    for (unsigned n : {1u, 2u, 4u}) {
        SqlPoint pt;
        pt.nDpus = n;
        pt.res = sqlRun(n, scfg);
        ok = ok && pt.res.valid;
        curve.push_back(pt);
    }
    const double base = curve.front().res.rowsPerSec();
    for (SqlPoint &pt : curve) {
        pt.speedup = base > 0 ? pt.res.rowsPerSec() / base : 0;
        bench::row("  %5u %10llu %12.3g %10.3g %8.1f%% %7.2fx",
                   pt.nDpus,
                   (unsigned long long)pt.res.rows,
                   pt.res.rowsPerSec(), pt.res.seconds,
                   pt.res.peakLinkUtilization * 100, pt.speedup);
    }
    // The scaling gates. Simulated time is deterministic, so these
    // are regression gates, not flaky thresholds.
    const double gate2 = 1.6, gate4 = 2.5;
    if (curve[1].speedup <= gate2) {
        bench::row("  FAIL: 2-DPU speedup %.2fx <= %.2fx gate",
                   curve[1].speedup, gate2);
        ok = false;
    }
    if (curve[2].speedup <= gate4) {
        bench::row("  FAIL: 4-DPU speedup %.2fx <= %.2fx gate",
                   curve[2].speedup, gate4);
        ok = false;
    }

    // Optional fault overlay: same 2-DPU workload under a seeded
    // link-fault schedule — must still validate (retries + doorbell
    // backfill), just slower.
    board::ShardedSqlResult faulted;
    bool ran_faulted = false;
    if (*faults) {
        sim::faultPlane().reset();
        sim::faultPlane().configure(faults, 1);
        const auto fb = topo::ClusterTopology::board(2).buildBoard();
        faulted = board::runShardedSql(*fb, scfg);
        sim::faultPlane().reset();
        ran_faulted = true;
        ok = ok && faulted.valid;
        bench::row("  under faults \"%s\": valid %d, %.3g rows/s, "
                   "%llu doorbells lost",
                   faults, int(faulted.valid),
                   faulted.rowsPerSec(),
                   (unsigned long long)faulted.doorbellsLost);
    }

    // ------------------------------------------------------------
    // 1b. Parallel epoch-runner wall-clock scaling
    // ------------------------------------------------------------
    const unsigned threads = unsigned(std::strtoul(
        bench::argValue(argc, argv, "--threads", "4"), nullptr, 0));
    const unsigned host_cores = std::thread::hardware_concurrency();
    bench::header("parallel scaling",
                  "4-DPU SQL wall time, serial vs --threads");

    // Best-of-N wall time: simulated work is identical, only the
    // machine is noisy.
    const unsigned wall_reps = smoke ? 1 : 3;
    auto bestWall = [&](unsigned t) {
        ParallelPoint best;
        for (unsigned i = 0; i < wall_reps; ++i) {
            ParallelPoint cur = parallelRun(t, scfg);
            if (i == 0 || cur.wallSec < best.wallSec)
                best = cur;
        }
        return best;
    };
    const ParallelPoint serial = bestWall(1);
    const ParallelPoint par = bestWall(threads);
    ok = ok && serial.res.valid && par.res.valid;
    const double wall_speedup =
        par.wallSec > 0 ? serial.wallSec / par.wallSec : 0;
    bench::row("  %7s %10s %10s %8s", "threads", "wall s", "epochs",
               "speedup");
    bench::row("  %7u %10.3g %10llu %7.2fx", 1u, serial.wallSec,
               (unsigned long long)serial.epochs, 1.0);
    bench::row("  %7u %10.3g %10llu %7.2fx", threads, par.wallSec,
               (unsigned long long)par.epochs, wall_speedup);
    // The CI floor: >= 2.0x at 4 threads — enforced only where the
    // host actually has the cores to show it (a 1-core runner can
    // only measure overhead, so there it reports without gating),
    // and only in uninstrumented builds.
    const double wall_gate = 2.0;
    const bool gate_enforced =
        !DPU_BENCH_TSAN && threads >= 4 && host_cores >= 4;
    if (gate_enforced && wall_speedup < wall_gate) {
        bench::row("  FAIL: wall speedup %.2fx < %.2fx gate "
                   "(%u host cores)",
                   wall_speedup, wall_gate, host_cores);
        ok = false;
    }
    if (DPU_BENCH_TSAN)
        bench::row("  (gate not enforced: ThreadSanitizer build)");
    else if (!gate_enforced)
        bench::row("  (gate not enforced: %u host cores, "
                   "%u threads requested)",
                   host_cores, threads);

    // ------------------------------------------------------------
    // 2. Distributed HLL
    // ------------------------------------------------------------
    bench::header("board HLL",
                  "cross-DPU sketch merge (2 DPUs)");
    board::DistHllConfig hcfg;
    if (smoke) {
        hcfg.elementsPerDpu = 1 << 12;
        hcfg.cardinality = 1 << 10;
    }
    sim::faultPlane().reset();
    const auto hb = topo::ClusterTopology::board(2).buildBoard();
    const board::DistHllResult hll =
        board::runDistributedHll(*hb, hcfg);
    ok = ok && hll.valid;
    bench::row("  estimate %.0f  true %llu  err %.2f%%  "
               "sketchExact %d  %.3g s",
               hll.estimate, (unsigned long long)hll.trueDistinct,
               hll.errorFrac * 100, int(hll.sketchExact),
               hll.seconds);

    // ------------------------------------------------------------
    // 3. Serving through the sharded scheduler
    // ------------------------------------------------------------
    bench::header("board serving",
                  "hash-routed request mix (2 DPUs)");
    sim::faultPlane().reset();
    const auto sbrd = topo::ClusterTopology::board(2).buildBoard();
    board::Board &sb = *sbrd;
    host::OffloadParams op;
    host::BoardScheduler bsched(sb, op, host::makeHashRouter());

    const unsigned n_jobs = smoke ? 16 : 48;
    const double rate = 4000;
    sim::Rng rng(0x0b0a7d);
    sim::Tick t = 0;
    const std::vector<rack::MixApp> mix = rack::servingMix();
    std::vector<std::uint64_t> per_shard(sb.nDpus(), 0);
    for (unsigned i = 0; i < n_jobs; ++i) {
        rack::TraceEvent ev;
        ev.appIdx = unsigned(rng.below(mix.size()));
        ev.seed = rng.next();
        host::JobRequest req = rack::makeRequest(ev, mix).job;
        const double gap_s = rng.uniform() / rate;
        t += sim::Tick(gap_s * 1e12);
        ++per_shard[bsched.route(req)];
        bsched.enqueueAt(t, std::move(req));
    }
    bsched.start();
    sb.run();
    bench::flushTrace();
    const host::ServingSummary sum = bsched.summary();
    ok = ok && sum.completed > 0 && sum.timedOut == 0 &&
         sum.validationFailed == 0;
    bench::row("  shard split: dpu0 %llu, dpu1 %llu of %u jobs",
               (unsigned long long)per_shard[0],
               (unsigned long long)per_shard[1], n_jobs);
    for (unsigned d = 0; d < sb.nDpus(); ++d)
        for (const host::JobRecord &r : bsched.shard(d).jobs())
            if (r.state == host::JobState::Completed && !r.valid)
                bench::row("  INVALID: dpu%u job %llu app %s", d,
                           (unsigned long long)r.id,
                           r.app.c_str());
    bench::row("  completed %llu  timedOut %llu  "
               "validationFailed %llu  rejected %llu",
               (unsigned long long)sum.completed,
               (unsigned long long)sum.timedOut,
               (unsigned long long)sum.validationFailed,
               (unsigned long long)sum.rejected);
    bench::row("  p50 %.1f us  p99 %.1f us  availability %.3f  "
               "%.3g jobs/s",
               sum.p50Us, sum.p99Us, sum.availability,
               sum.throughputJobsPerSec);

    // ------------------------------------------------------------
    // JSON (last line of stdout)
    // ------------------------------------------------------------
    {
        bench::Json j;
        j.field("bench", "board");
        j.field("smoke", std::uint64_t(smoke));
        j.arr("sqlScaling");
        for (const SqlPoint &pt : curve) {
            j.elem();
            j.field("nDpus", std::uint64_t(pt.nDpus));
            j.field("rows", pt.res.rows);
            j.field("rowsPerSec", pt.res.rowsPerSec());
            j.field("seconds", pt.res.seconds);
            j.field("bytesShipped", pt.res.bytesShipped);
            j.field("peakLinkUtilization",
                    pt.res.peakLinkUtilization);
            j.field("speedup", pt.speedup);
            j.field("valid", std::uint64_t(pt.res.valid));
            j.end();
        }
        j.end();
        j.field("gate2", gate2).field("gate4", gate4);
        j.obj("parallelScaling");
        j.field("threads", std::uint64_t(threads));
        j.field("hostCores", std::uint64_t(host_cores));
        j.field("wallSecSerial", serial.wallSec);
        j.field("wallSecParallel", par.wallSec);
        j.field("wallSpeedup", wall_speedup);
        j.field("epochs", par.epochs);
        j.field("gate", wall_gate);
        j.field("gateEnforced", std::uint64_t(gate_enforced));
        j.end();
        if (ran_faulted) {
            j.obj("sqlFaulted");
            j.field("spec", faults);
            j.field("valid", std::uint64_t(faulted.valid));
            j.field("rowsPerSec", faulted.rowsPerSec());
            j.field("doorbellsLost", faulted.doorbellsLost);
            j.end();
        }
        j.obj("hll");
        j.field("estimate", hll.estimate);
        j.field("trueDistinct", hll.trueDistinct);
        j.field("errorFrac", hll.errorFrac);
        j.field("sketchExact", std::uint64_t(hll.sketchExact));
        j.field("valid", std::uint64_t(hll.valid));
        j.end();
        j.obj("serving");
        j.field("nDpus", std::uint64_t(2));
        j.field("jobs", std::uint64_t(n_jobs));
        j.field("completed", sum.completed);
        j.field("timedOut", sum.timedOut);
        j.field("p50Us", sum.p50Us);
        j.field("p99Us", sum.p99Us);
        j.field("availability", sum.availability);
        j.field("jobsPerSec", sum.throughputJobsPerSec);
        j.end();
        j.field("pass", std::uint64_t(ok));
    }

    if (!ok) {
        std::fprintf(stderr, "bench_board: FAILED gates\n");
        return 1;
    }
    return 0;
}
