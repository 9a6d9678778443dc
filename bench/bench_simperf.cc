/**
 * @file
 * Simulator-throughput benchmark: simulated-ticks-per-wall-second
 * (and events-per-wall-second) for event-kernel-bound workloads.
 *
 * This is not a paper figure: it measures the SIMULATOR, not the
 * modelled chip, so that event-kernel regressions fail loudly and
 * speedups are measured rather than asserted. Three workloads with
 * very different scheduling mixes:
 *
 *   kernel   — raw EventQueue chains (no SoC): pure scheduling
 *              overhead, a near/far delta mix on the event heap.
 *   fig02    — the Figure 2 ATE ping-pong: every RPC is a chain of
 *              queue events plus two fiber switches.
 *   listing1 — the Listing 1 DDR->DMEM ping-pong stream: DMAD/DMAC
 *              descriptor events interleaved with core wakeups.
 *
 * Output ends with one machine-readable JSON line (PR 2 report
 * format). `--floor <ticks/s>` exits non-zero when the slowest
 * SoC workload underruns the floor — CI pins a conservative floor
 * so an order-of-magnitude event-kernel regression fails the job
 * while machine-to-machine variance does not.
 *
 * `--scale` runs the host-cost scaling row instead: boards of 4, 64
 * and 512 DPUs (4 and 64 with `--smoke`), each built, run through
 * the distributed HLL at 4,096 elements per DPU, then with every
 * agent (32 dpCores and the A9 per chip) started, and torn down. Per
 * DPU count it reports build, run and teardown wall ms per DPU,
 * kernel mappings per chip at construction and with every agent
 * started, and resident MB per DPU, and it exits non-zero when the
 * HLL sketch is wrong. A process holds at most vm.max_map_count
 * mappings (65,530 by default), so mappings per chip set how many
 * chips one process can build.
 */

#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include <memory>
#include <thread>

#include "bench/report.hh"
#include "board/board.hh"
#include "board/board_apps.hh"
#include "rt/dms_ctl.hh"
#include "sim/parallel.hh"
#include "sim/rng.hh"
#include "soc/soc.hh"
#include "topo/topology.hh"

using namespace dpu;

namespace {

struct Result
{
    std::string name;
    sim::Tick simTicks = 0;
    double wallSec = 0;
    std::uint64_t events = 0;

    double ticksPerSec() const
    {
        return wallSec > 0 ? double(simTicks) / wallSec : 0;
    }
    double eventsPerSec() const
    {
        return wallSec > 0 ? double(events) / wallSec : 0;
    }
};

double
wallNow()
{
    using clk = std::chrono::steady_clock;
    return std::chrono::duration<double>(
               clk::now().time_since_epoch())
        .count();
}

/**
 * Raw event-kernel storm: @p chains self-rescheduling events with a
 * deterministic near/far delta mix (7/8 within a few dpCore cycles,
 * 1/8 up to 100 us out), until @p total events have executed.
 */
Result
runKernel(std::uint64_t total, unsigned chains)
{
    sim::EventQueue eq;
    sim::Rng rng(7);
    std::uint64_t executed = 0;
    // Per-chain deterministic delta stream, fixed up front so the
    // workload is identical run to run.
    std::vector<std::uint64_t> seeds(chains);
    for (auto &s : seeds)
        s = rng.next();

    struct Chain
    {
        sim::EventQueue &eq;
        std::uint64_t &executed;
        std::uint64_t total;
        sim::Rng rng;

        void
        fire()
        {
            if (++executed >= total)
                return;
            std::uint64_t r = rng.next();
            // Mostly cycle-scale deltas; every 8th hop jumps up to
            // 100 us, so chains interleave across a wide time span.
            sim::Tick delta = (r & 7) == 0
                                  ? (r >> 8) % 100'000'000
                                  : (r >> 8) % 20'000;
            eq.scheduleIn(delta, [this] { fire(); });
        }
    };

    std::vector<Chain> cs;
    cs.reserve(chains);
    for (unsigned i = 0; i < chains; ++i)
        cs.push_back(Chain{eq, executed, total, sim::Rng(seeds[i])});

    const double t0 = wallNow();
    for (auto &c : cs)
        c.fire();
    eq.run();
    const double wall = wallNow() - t0;
    return {"kernel", eq.now(), wall, executed};
}

/** Figure 2 workload: far-macro hardware-load ping-pong. */
Result
runFig02(unsigned iters)
{
    soc::Soc s;
    s.start(0, [&s, iters](core::DpCore &c) {
        for (unsigned i = 0; i < iters; ++i)
            s.ate().remoteLoad(c, 31, mem::dmemAddr(31, 0), 8);
    });
    const double t0 = wallNow();
    s.run();
    const double wall = wallNow() - t0;
    Result r{"fig02", s.now(), wall,
             s.eventQueue().profile().totalExecuted()};
    return r;
}

/**
 * Listing 1 workload: stream @p bufs KB-buffers from DDR through a
 * two-buffer DMEM ping-pong, consuming each word on the core.
 */
Result
runListing1(unsigned bufs)
{
    soc::Soc s;
    const std::uint32_t total = bufs * 1024;
    for (std::uint32_t i = 0; i < total / 4; ++i)
        s.memory().store().store<std::uint32_t>(i * 4,
                                                i * 0x9e3779b9u);
    std::uint64_t sum = 0;
    s.start(0, [&s, &sum, bufs](core::DpCore &c) {
        rt::DmsCtl ctl(c, s.dms());
        // dms_setup_ddr_to_dmem(256, 0, 0, event0)
        auto d0 = ctl.ddrToDmem().rows(256).width(4).from(0).to(0)
                      .event(0).setup();
        // dms_setup_ddr_to_dmem(256, 0, 1024, event1)
        auto d1 = ctl.ddrToDmem().rows(256).width(4).from(0).to(1024)
                      .event(1).setup();
        auto loop = ctl.setupLoop(d0, std::uint16_t(bufs / 2 - 1));
        ctl.push(d0);
        ctl.push(d1);
        ctl.push(loop);
        unsigned buf = 0;
        for (std::uint32_t count = 0; count < bufs; ++count) {
            ctl.wfe(buf);
            std::uint32_t base = buf ? 1024u : 0u;
            for (std::uint32_t i = 0; i < 256; ++i)
                sum += c.dmem().load<std::uint32_t>(base + i * 4);
            c.dualIssue(256, 256);
            ctl.clearEvent(buf);
            buf = 1 - buf;
        }
    });
    const double t0 = wallNow();
    s.run();
    const double wall = wallNow() - t0;
    if (!s.allFinished())
        std::exit(2); // self-check: the stream must complete
    Result r{"listing1", s.now(), wall,
             s.eventQueue().profile().totalExecuted()};
    (void)sum;
    return r;
}

/**
 * The kernel storm sharded over 4 queue partitions driven by the
 * EpochRunner at @p threads workers (lookahead = the board link's
 * 600 ns) — measures the parallel event kernel itself, free of chip
 * model weight. Identical simulated work at every thread count.
 */
Result
runParallelKernel(std::uint64_t total_per_part, unsigned chains,
                  unsigned threads)
{
    constexpr unsigned parts = 4;
    std::vector<std::unique_ptr<sim::EventQueue>> qs;
    std::vector<sim::EventQueue *> qp;
    for (unsigned d = 0; d < parts; ++d) {
        qs.push_back(std::make_unique<sim::EventQueue>());
        qp.push_back(qs.back().get());
    }

    struct Chain
    {
        sim::EventQueue &eq;
        std::uint64_t &executed;
        std::uint64_t total;
        sim::Rng rng;

        void
        fire()
        {
            if (++executed >= total)
                return;
            // Cycle-scale deltas only: many events per 600 ns epoch
            // window, the shape parallelism pays off on.
            eq.scheduleIn((rng.next() >> 8) % 20'000,
                          [this] { fire(); });
        }
    };

    // One cache line per partition's count: every worker bumps its
    // count on every event, and shared lines would time the false
    // sharing rather than the epoch runner.
    struct alignas(64) Count
    {
        std::uint64_t n = 0;
    };
    std::vector<Count> executed(parts);
    std::vector<std::unique_ptr<Chain>> cs;
    sim::Rng seeds(7);
    for (unsigned d = 0; d < parts; ++d)
        for (unsigned i = 0; i < chains; ++i)
            cs.push_back(std::make_unique<Chain>(Chain{
                *qs[d], executed[d].n, total_per_part,
                sim::Rng(seeds.next())}));

    sim::ParallelParams pp;
    pp.threads = threads;
    pp.lookahead = 600'000;
    sim::EpochRunner runner(qp, pp);

    const double t0 = wallNow();
    for (auto &c : cs)
        c->fire();
    const sim::Tick end = runner.run();
    const double wall = wallNow() - t0;
    std::uint64_t events = 0;
    for (const Count &e : executed)
        events += e.n;
    return {"kernel4x" + std::to_string(threads), end, wall, events};
}

/** The process's kernel mappings: lines of /proc/self/maps. */
long
mappingCount()
{
    std::ifstream f("/proc/self/maps");
    long n = 0;
    for (std::string line; std::getline(f, line);)
        ++n;
    return n;
}

/** The process's resident bytes (/proc/self/statm). */
double
residentBytes()
{
    std::ifstream f("/proc/self/statm");
    long size = 0, resident = 0;
    f >> size >> resident;
    return double(resident) * double(sysconf(_SC_PAGESIZE));
}

/** One DPU count of the scaling row. */
struct ScaleRow
{
    unsigned dpus = 0;
    double buildMsPerDpu = 0;
    double runMsPerDpu = 0;
    double teardownMsPerDpu = 0;
    double mapsPerChipBuilt = 0;
    double mapsPerChipStarted = 0;
    double residentMbPerDpu = 0;
    bool hllExact = false;
};

/** Build a board of @p n DPUs, run the distributed HLL on it, start
 *  every agent, and tear it down, timing each phase. */
ScaleRow
runScale(unsigned n)
{
    ScaleRow r;
    r.dpus = n;
    const long maps0 = mappingCount();
    const double rss0 = residentBytes();

    double t0 = wallNow();
    std::unique_ptr<board::Board> b =
        topo::ClusterTopology::board(n).buildBoard();
    r.buildMsPerDpu = (wallNow() - t0) * 1e3 / n;
    r.mapsPerChipBuilt = double(mappingCount() - maps0) / n;

    board::DistHllConfig cfg;
    cfg.elementsPerDpu = 4096;
    t0 = wallNow();
    r.hllExact = board::runDistributedHll(*b, cfg).sketchExact;
    r.runMsPerDpu = (wallNow() - t0) * 1e3 / n;

    // Every agent holds a fiber stack from its first start on.
    for (unsigned d = 0; d < n; ++d) {
        b->dpu(d).startAll([](core::DpCore &c) { c.cycles(1); });
        b->dpu(d).a9().start([](soc::HostA9 &) {});
    }
    b->run();
    r.mapsPerChipStarted = double(mappingCount() - maps0) / n;
    r.residentMbPerDpu = (residentBytes() - rss0) / 1e6 / n;

    t0 = wallNow();
    b.reset();
    r.teardownMsPerDpu = (wallNow() - t0) * 1e3 / n;
    return r;
}

/** The --scale mode: one ScaleRow per DPU count, and the JSON line.
 *  @return the exit code. */
int
scaleMain(bool smoke)
{
    bench::header("simperf scale",
                  "host cost per DPU: board build, HLL run, every "
                  "agent started, teardown");
    bench::row("  %5s %9s %9s %9s %11s %11s %9s", "dpus", "build ms",
               "run ms", "tear ms", "maps built", "maps agents",
               "RSS MB");
    bench::row("  %5s %9s %9s %9s %11s %11s %9s", "", "/DPU", "/DPU",
               "/DPU", "/chip", "/chip", "/DPU");
    std::vector<ScaleRow> rows;
    for (unsigned n : {4u, 64u, 512u}) {
        if (smoke && n > 64)
            break;
        rows.push_back(runScale(n));
        const ScaleRow &r = rows.back();
        bench::row("  %5u %9.3f %9.3f %9.3f %11.2f %11.2f %9.3f%s",
                   r.dpus, r.buildMsPerDpu, r.runMsPerDpu,
                   r.teardownMsPerDpu, r.mapsPerChipBuilt,
                   r.mapsPerChipStarted, r.residentMbPerDpu,
                   r.hllExact ? "" : "  HLL sketch wrong");
    }

    bench::Json j;
    j.field("bench", "simperf_scale")
        .field("smoke", std::uint64_t(smoke ? 1 : 0));
    j.arr("rows");
    bool ok = true;
    for (const ScaleRow &r : rows) {
        ok = ok && r.hllExact;
        j.elem()
            .field("dpus", std::uint64_t(r.dpus))
            .field("buildMsPerDpu", r.buildMsPerDpu)
            .field("runMsPerDpu", r.runMsPerDpu)
            .field("teardownMsPerDpu", r.teardownMsPerDpu)
            .field("mapsPerChipBuilt", r.mapsPerChipBuilt)
            .field("mapsPerChipStarted", r.mapsPerChipStarted)
            .field("residentMbPerDpu", r.residentMbPerDpu)
            .field("hllExact", std::uint64_t(r.hllExact ? 1 : 0))
            .end();
    }
    j.end();
    return ok ? 0 : 2;
}

} // namespace

int
main(int argc, char **argv)
{
    sim::setVerbose(false);
    const bool smoke = bench::smokeRun(argc, argv);
    if (bench::flag(argc, argv, "--scale"))
        return scaleMain(smoke);
    const double floor =
        std::atof(bench::argValue(argc, argv, "--floor", "0"));
    const unsigned repeat = smoke ? 1 : 3;

    bench::header("simperf",
                  "simulated-ticks-per-wall-second (simulator "
                  "throughput, not a paper figure)");
    bench::row("  %-10s %16s %16s %14s", "workload", "sim ticks",
               "ticks/wall-s", "Mevents/s");

    // Best-of-N wall time: the sim is deterministic, the machine is
    // not; max throughput is the least noisy estimator.
    auto best = [&](auto &&fn) {
        Result r;
        for (unsigned i = 0; i < repeat; ++i) {
            Result cur = fn();
            if (i == 0 || cur.wallSec < r.wallSec)
                r = cur;
        }
        return r;
    };

    std::vector<Result> results;
    results.push_back(best([&] {
        return runKernel(smoke ? 200'000 : 4'000'000, 64);
    }));
    results.push_back(
        best([&] { return runFig02(smoke ? 2'000 : 400'000); }));
    results.push_back(
        best([&] { return runListing1(smoke ? 512 : 65'536); }));

    double worstSoc = 0;
    for (const Result &r : results) {
        bench::row("  %-10s %16llu %16.3g %14.2f", r.name.c_str(),
                   (unsigned long long)r.simTicks, r.ticksPerSec(),
                   r.eventsPerSec() / 1e6);
        if (r.name != "kernel") {
            if (worstSoc == 0 || r.ticksPerSec() < worstSoc)
                worstSoc = r.ticksPerSec();
        }
    }

    // ------------------------------------------------------------
    // Parallel kernel scaling: 4 partitions, serial vs --threads
    // ------------------------------------------------------------
    const unsigned threads = unsigned(std::strtoul(
        bench::argValue(argc, argv, "--threads", "4"), nullptr, 0));
    const unsigned host_cores = std::thread::hardware_concurrency();
    const std::uint64_t per_part = smoke ? 100'000 : 1'000'000;
    bench::header("parallel kernel",
                  "4-partition epoch runner, serial vs --threads");
    const Result pserial =
        best([&] { return runParallelKernel(per_part, 16, 1); });
    const Result ppar =
        best([&] { return runParallelKernel(per_part, 16, threads); });
    const double pspeedup =
        ppar.wallSec > 0 ? pserial.wallSec / ppar.wallSec : 0;
    bench::row("  %-10s %16llu %16.3g %14.2f",
               pserial.name.c_str(),
               (unsigned long long)pserial.simTicks,
               pserial.ticksPerSec(), pserial.eventsPerSec() / 1e6);
    bench::row("  %-10s %16llu %16.3g %14.2f  (%.2fx, %u cores)",
               ppar.name.c_str(),
               (unsigned long long)ppar.simTicks,
               ppar.ticksPerSec(), ppar.eventsPerSec() / 1e6,
               pspeedup, host_cores);

    {
        bench::Json j;
        j.field("bench", "simperf")
            .field("smoke", std::uint64_t(smoke ? 1 : 0));
        j.arr("workloads");
        for (const Result &r : results)
            j.elem()
                .field("name", r.name)
                .field("simTicks", r.simTicks)
                .field("wallSec", r.wallSec)
                .field("ticksPerWallSec", r.ticksPerSec())
                .field("eventsExecuted", r.events)
                .field("eventsPerWallSec", r.eventsPerSec())
                .end();
        j.end();
        j.field("worstSocTicksPerWallSec", worstSoc);
        j.obj("parallelKernel");
        j.field("threads", std::uint64_t(threads));
        j.field("hostCores", std::uint64_t(host_cores));
        j.field("wallSecSerial", pserial.wallSec);
        j.field("wallSecParallel", ppar.wallSec);
        j.field("wallSpeedup", pspeedup);
        j.field("eventsPerWallSecParallel", ppar.eventsPerSec());
        j.end();
    }

    if (floor > 0 && worstSoc < floor) {
        std::fprintf(stderr,
                     "simperf: worst SoC workload %.3g ticks/s "
                     "under floor %.3g\n",
                     worstSoc, floor);
        return 1;
    }
    return 0;
}
