/**
 * @file
 * The four dpubench workloads. Each repeat builds everything anew
 * through public entry points only, timing the set-up and
 * measured phases from this side of the API.
 */

#include "dpubench.hh"

#include <malloc.h>

#include <algorithm>
#include <cinttypes>
#include <cstdarg>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>

#include "apps/registry.hh"
#include "host/board_offload.hh"
#include "host/router.hh"
#include "host/summary.hh"
#include "rack/health.hh"
#include "rack/scheduler.hh"
#include "rack/trace.hh"
#include "rack/workload.hh"
#include "sim/event.hh"
#include "sim/fault.hh"
#include "sim/stats_registry.hh"
#include "topo/topology.hh"
#include "util/crc32.hh"

namespace dpubench {
namespace {

using namespace dpu;
using Scope = SpanLog::Scope;

std::string
fmt(const char *f, ...) __attribute__((format(printf, 1, 2)));

std::string
fmt(const char *f, ...)
{
    char buf[256];
    va_list ap;
    va_start(ap, f);
    std::vsnprintf(buf, sizeof buf, f, ap);
    va_end(ap);
    return buf;
}

// ----------------------------------------------------------------
// Folding simulator state into metrics
// ----------------------------------------------------------------

/** CRC32 over "key=value" lines; the repeat-to-repeat digest. */
class Digest
{
  public:
    void
    add(const std::string &key, const std::string &val)
    {
        crc = util::crc32Update(crc, key.data(), key.size());
        crc = util::crc32Update(crc, "=", 1);
        crc = util::crc32Update(crc, val.data(), val.size());
        crc = util::crc32Update(crc, "\n", 1);
    }

    void add(const std::string &key, double v) { add(key, fmt("%.17g", v)); }

    void
    add(const sim::StatsSnapshot &s)
    {
        for (const auto &[k, v] : s.counters)
            add(k, fmt("%" PRIu64, v));
        for (const auto &[k, v] : s.scalars)
            add(k, v);
    }

    std::uint32_t value() const { return crc; }

  private:
    std::uint32_t crc = 0;
};

/** Counter sums with each group's "#N" duplicate suffix and
 *  trailing instance digits dropped ("core5#2.aluOps" ->
 *  "core.aluOps"), plus how many groups fed each sum. */
struct Folded
{
    std::map<std::string, double> sum;
    std::map<std::string, unsigned> groups;

    explicit Folded(const sim::StatsSnapshot &s)
    {
        for (const auto &[k, v] : s.counters) {
            const std::size_t dot = k.find('.');
            if (dot == std::string::npos)
                continue;
            std::string g = k.substr(0, dot);
            g.erase(std::min(g.find('#'), g.size()));
            while (!g.empty() && std::isdigit((unsigned char)g.back()))
                g.pop_back();
            const std::string key = g + k.substr(dot);
            sum[key] += double(v);
            ++groups[key];
        }
    }

    double
    get(const char *key) const
    {
        const auto it = sum.find(key);
        return it == sum.end() ? 0.0 : it->second;
    }
};

/** The chip layers (core, mem, dms, mbc) from a live snapshot. */
void
chipLayers(const Folded &f, sim::Tick end, Repeat &r)
{
    double ops = 0;
    for (const char *k :
         {"core.aluOps", "core.lsuOps", "core.muls", "core.divs",
          "core.crcOps", "core.popcounts", "core.ntzOps",
          "core.nlzOps", "core.filtOps"})
        ops += f.get(k);
    r.sim["core.ops"] = ops;

    r.sim["mem.ddr_bytes"] =
        f.get("ddr.bytesRead") + f.get("ddr.bytesWritten");
    const auto ddrs = f.groups.find("ddr.busyTicks");
    r.sim["mem.ddr_busy_frac"] =
        ddrs == f.groups.end() || end == 0
            ? 0.0
            : f.get("ddr.busyTicks") /
                  (double(ddrs->second) * double(end));
    const double hits = f.get("ddr.rowHits");
    const double misses = f.get("ddr.rowMisses");
    r.sim["mem.ddr_row_hit_ratio"] =
        hits + misses > 0 ? hits / (hits + misses) : 0.0;

    r.sim["dms.descriptors"] = f.get("dmac.descriptors");
    r.sim["dms.bytes"] = f.get("dmac.bytesToDmem") +
                         f.get("dmac.bytesFromDmem") +
                         f.get("dmac.bytesToCmem");
    r.sim["mbc.delivered"] = f.get("mbc.delivered");
}

/** Event counts (always on) and wall attribution per tag (only
 *  grows while wall profiling is on). */
void
foldQueue(const sim::EventQueue &q, Repeat &r)
{
    const sim::EventQueue::Profile &p = q.profile();
    r.sim["sim.events"] += double(p.totalExecuted());
    for (unsigned t = 0; t < sim::nEvTags; ++t)
        r.hostS[std::string(sim::evTagName(sim::EvTag(t))) + ".wall"] +=
            p.wallNs[t] * 1e-9;
}

void
foldBoard(board::Board &b, Repeat &r)
{
    for (unsigned d = 0; d < b.nDpus(); ++d)
        foldQueue(b.eventQueue(d), r);
    const sim::EpochRunner::Stats &st = b.runnerStats();
    r.sim["sim.epochs"] += double(st.epochs);
    r.sim["sim.empty_epochs"] += double(st.emptyEpochs);
    r.sim["sim.idle_skips"] += double(st.idleSkips);
    r.sim["board.link_bytes"] += double(b.fabric().bytesCarried());
    r.sim["board.link_mig_bytes"] +=
        double(b.fabric().migrationBytes());
    r.sim["board.link_drop_bytes"] +=
        double(b.fabric().droppedBytes());
}

/** Wall-profile every event queue of @p b (the traced repeat). */
void
profileBoard(board::Board &b)
{
    for (unsigned d = 0; d < b.nDpus(); ++d)
        b.eventQueue(d).enableWallProfiling(true);
}

/** Job-record folds shared by the rack and board workloads. */
struct JobFold
{
    std::vector<double> waitUs, serviceUs;
    std::uint64_t validCompletions = 0;

    void
    add(const host::OffloadScheduler &s, const std::string &where,
        Repeat &r)
    {
        for (const host::JobRecord &j : s.jobs()) {
            if (j.attempts > 0)
                waitUs.push_back(
                    double(j.dispatchedAt - j.enqueuedAt) * 1e-6);
            if (j.state != host::JobState::Completed)
                continue;
            serviceUs.push_back(
                double(j.finishedAt - j.dispatchedAt) * 1e-6);
            if (j.valid)
                ++validCompletions;
            else if (r.errors.size() < 8)
                r.errors.push_back(fmt(
                    "%s job %" PRIu64 " (%s) failed validation",
                    where.c_str(), j.id, j.app.c_str()));
        }
        const host::ServingSummary sum = s.summary();
        if (sum.completed + sum.timedOut + sum.rejected !=
            sum.submitted)
            r.errors.push_back(fmt(
                "%s: completed %" PRIu64 " + timedOut %" PRIu64
                " + rejected %" PRIu64 " != submitted %" PRIu64,
                where.c_str(), sum.completed, sum.timedOut,
                sum.rejected, sum.submitted));
        r.sim["host.timed_out"] += double(sum.timedOut);
        r.sim["host.dpu_rejected"] += double(sum.rejected);
        r.sim["host.requeued"] += double(sum.requeued);
        r.sim["host.validation_failed"] +=
            double(sum.validationFailed);
    }

    void
    finish(Repeat &r)
    {
        std::sort(waitUs.begin(), waitUs.end());
        std::sort(serviceUs.begin(), serviceUs.end());
        r.sim["host.queue_wait_p50_us"] =
            host::percentileOf(waitUs, 0.50);
        r.sim["host.queue_wait_p99_us"] =
            host::percentileOf(waitUs, 0.99);
        r.sim["host.service_p50_us"] =
            host::percentileOf(serviceUs, 0.50);
        r.sim["host.service_p99_us"] =
            host::percentileOf(serviceUs, 0.99);
    }
};

/** The serving metrics every serving workload reports. */
void
servingMetrics(const host::ServingSummary &s, double users_per_sim_s,
               Repeat &r)
{
    r.sim["users_per_sim_s"] = users_per_sim_s;
    r.sim["sim_p50_us"] = s.p50Us;
    r.sim["sim_p99_us"] = s.p99Us;
}

// ----------------------------------------------------------------
// fig14_apps: the nine registry apps, head to head
// ----------------------------------------------------------------

/** Per-app overrides for --smoke (about 1/20 of the work). */
const std::vector<
    std::pair<const char *,
              std::vector<std::pair<const char *, const char *>>>>
    fig14Smoke = {
        {"svm", {{"nTrain", "1024"}, {"nTest", "256"}, {"maxIters", "60"}}},
        {"simsearch", {{"nDocs", "2048"}, {"nQueries", "4"}}},
        {"filter", {{"rowsPerCore", "8192"}}},
        {"groupby-low", {{"nRows", "65536"}}},
        {"groupby-high", {{"nRows", "65536"}, {"ndv", "8192"}}},
        {"hll-crc", {{"nElements", "262144"}, {"cardinality", "32768"}}},
        {"hll-murmur", {{"nElements", "65536"}, {"cardinality", "8192"}}},
        {"json", {{"nRecords", "2048"}}},
        {"disparity", {{"width", "128"}, {"height", "64"}}},
};

Repeat
runFig14(const RunConfig &cfg)
{
    sim::faultPlane().reset();
    Repeat r;

    // Set-up: the configs, and the single-chip topology every app
    // runs on. AppSpec::run builds its own chip, so this build is
    // timed for set-up only and then released.
    const PhaseTimer setup;
    std::vector<apps::ConfigHandle> cfgs;
    {
        Scope s(cfg.spans, "setup");
        {
            Scope c(cfg.spans, "apps.makeConfig", "setup.inputs");
            for (const apps::AppSpec &spec : apps::registry()) {
                cfgs.push_back(spec.makeConfig());
                bool ok = true;
                if (cfg.seedGiven)
                    ok = spec.set(cfgs.back(), "seed",
                                  std::to_string(cfg.seed));
                if (cfg.smoke)
                    for (const auto &[app, opts] : fig14Smoke)
                        if (spec.name == app)
                            for (const auto &[k, v] : opts)
                                ok = ok && spec.set(cfgs.back(), k, v);
                if (!ok)
                    r.errors.push_back(spec.name +
                                       " rejected a benchmark option");
            }
        }
        Scope b(cfg.spans, "topo.buildSoc", "setup.topo");
        sim::EventQueue q;
        auto chip = topo::ClusterTopology::soc().buildSoc(q);
    }
    setup.stop(r.setupS, r.setupCpuS);

    const PhaseTimer measured;
    std::vector<apps::AppResult> res;
    {
        Scope m(cfg.spans, "measured");
        Scope run(cfg.spans, "apps.run", "wall.run");
        for (std::size_t i = 0; i < apps::registry().size(); ++i) {
            const apps::AppSpec &spec = apps::registry()[i];
            Scope a(cfg.spans, "apps." + spec.name,
                    "apps." + spec.name + ".wall");
            res.push_back(spec.run(cfgs[i]));
            // Hand the app's freed heap back, as if each app ran in
            // a process of its own. Without it, heap fragments left
            // by one app stack under the next app's peak, and the
            // peak would depend on how the seed shapes that heap.
            malloc_trim(0);
        }
    }
    measured.stop(r.wallS, r.cpuS);

    Digest dig;
    double dpu_ms = 0, log_err = 0;
    unsigned anchored = 0;
    for (std::size_t i = 0; i < res.size(); ++i) {
        const apps::AppSpec &spec = apps::registry()[i];
        const apps::AppResult &a = res[i];
        ++r.attempted;
        if (!a.matched) {
            ++r.failed;
            r.errors.push_back(spec.name +
                               ": DPU output does not match the "
                               "Xeon baseline");
        }
        const std::string p = "apps." + spec.name;
        r.sim[p + ".sim_dpu_ms"] = a.dpuSeconds * 1e3;
        r.sim[p + ".gain"] = a.gain();
        dpu_ms += a.dpuSeconds * 1e3;
        if (spec.paperGain > 0) {
            log_err += std::fabs(std::log(a.gain() / spec.paperGain));
            ++anchored;
        }
        dig.add(p + ".dpuSeconds", a.dpuSeconds);
        dig.add(p + ".xeonSeconds", a.xeonSeconds);
        dig.add(p + ".workUnits", a.workUnits);
        dig.add(p + ".matched", double(a.matched));
    }
    r.sim["sim_dpu_ms"] = dpu_ms;
    r.sim["paper_gain_err"] =
        anchored ? std::exp(log_err / anchored) - 1 : 0.0;
    dig.add(sim::StatsRegistry::instance().snapshot());
    r.digest = dig.value();
    return r;
}

// ----------------------------------------------------------------
// Rack workloads: rack_serve and rack_outage
// ----------------------------------------------------------------

/** One rack scenario: its topology knobs, trace and fault spec. */
struct RackScenario
{
    rack::PlacementParams place;
    /** Generated long enough to hold nRequests arrivals; only the
     *  first nRequests are offered, so every seed offers the same
     *  amount of work. */
    rack::TraceConfig trace;
    std::size_t nRequests = 0;
    host::OffloadParams offload;
    std::string faults; ///< fault-plane spec ("" = clean)
    unsigned crashBoard = 0;
    sim::Tick crashAt = 0;
};

Repeat
runRack(const RunConfig &cfg, const RackScenario &sc)
{
    sim::faultPlane().reset();
    if (!sc.faults.empty())
        sim::faultPlane().configure(sc.faults.c_str(), 1);
    Repeat r;

    // Set-up: the arrival trace, its requests, the rack and its
    // front-end scheduler.
    const PhaseTimer setup;
    std::vector<rack::TraceEvent> trace;
    std::vector<rack::RackRequest> reqs;
    std::unique_ptr<rack::Rack> rk;
    std::unique_ptr<rack::RackScheduler> sched;
    {
        Scope s(cfg.spans, "setup");
        {
            Scope g(cfg.spans, "rack.generateTrace", "setup.inputs");
            trace = rack::generateTrace(sc.trace);
            if (trace.size() < sc.nRequests) {
                r.errors.push_back(
                    fmt("trace holds %zu arrivals, %zu needed",
                        trace.size(), sc.nRequests));
                return r;
            }
            trace.resize(sc.nRequests);
            const std::vector<rack::MixApp> mix = rack::servingMix();
            reqs.reserve(trace.size());
            for (const rack::TraceEvent &ev : trace)
                reqs.push_back(rack::makeRequest(ev, mix));
        }
        {
            Scope b(cfg.spans, "topo.buildRack", "setup.topo");
            // 64 MB of DDR per chip holds every per-group job arena
            // under full queues (as bench_rack sizes it).
            soc::SocParams sp = soc::dpu40nm();
            sp.ddrBytes = std::size_t(64) << 20;
            topo::ClusterTopology topo =
                topo::ClusterTopology::rack(4, 2)
                    .chip(sp)
                    .placement(sc.place)
                    .threads(1);
            const std::string err = topo.validate();
            if (!err.empty()) {
                r.errors.push_back("rack topology invalid: " + err);
                return r;
            }
            rk = topo.buildRack();
        }
        Scope c(cfg.spans, "rack.RackScheduler", "setup.sched");
        sched = std::make_unique<rack::RackScheduler>(*rk, sc.offload,
                                                      sc.place);
    }
    setup.stop(r.setupS, r.setupCpuS);

    if (cfg.spans)
        for (unsigned b = 0; b < rk->nBoards(); ++b)
            profileBoard(rk->board(b));

    const PhaseTimer measured;
    rack::RackSummary sum;
    sim::StatsSnapshot snap;
    {
        Scope m(cfg.spans, "measured");
        {
            Scope e(cfg.spans, "rack.enqueueAt", "wall.admit");
            for (std::size_t i = 0; i < trace.size(); ++i)
                sched->enqueueAt(trace[i].at, std::move(reqs[i]));
            sched->start();
        }
        {
            Scope run(cfg.spans, "rack.run", "wall.run");
            rk->run();
        }
        Scope s(cfg.spans, "rack.summary", "wall.summary");
        sum = sched->summary();
        snap = sim::StatsRegistry::instance().snapshot();
    }
    measured.stop(r.wallS, r.cpuS);
    sim::faultPlane().reset();

    // Correctness: conservation at the front-end, per-DPU
    // conservation and validation of every completed request.
    if (!rk->allFinished())
        r.errors.push_back("a board did not drain its kernels");
    const std::uint64_t fates = sum.admitted + sum.rejected +
                                sum.boardsDown + sum.netLost +
                                sum.shed;
    if (sum.offered != fates)
        r.errors.push_back(fmt(
            "rack conservation: offered %" PRIu64
            " != admitted + rejected + boardsDown + netLost + shed "
            "= %" PRIu64,
            sum.offered, fates));
    JobFold jobs;
    for (unsigned b = 0; b < rk->nBoards(); ++b) {
        host::BoardScheduler &bs = sched->boardScheduler(b);
        for (unsigned d = 0; d < bs.nShards(); ++d)
            jobs.add(bs.shard(d), fmt("board %u dpu %u", b, d), r);
        foldBoard(rk->board(b), r);
    }
    jobs.finish(r);
    r.attempted = sum.offered;
    r.failed = sum.offered - std::min(sum.offered, jobs.validCompletions);

    servingMetrics(sum.serving, sum.usersPerSimSec, r);
    chipLayers(Folded(snap), rk->now(), r);
    r.sim["rack.admitted"] = double(sum.admitted);
    r.sim["rack.rejected"] = double(sum.rejected);
    r.sim["rack.shed"] = double(sum.shed);
    r.sim["rack.failovers"] = double(sum.failovers);
    r.sim["rack.admit_reroutes"] = double(sum.admitReroutes);
    r.sim["rack.mig_committed"] = double(sum.migCommitted);
    r.sim["rack.repairs_committed"] = double(sum.repairsCommitted);
    r.sim["rack.probes"] = double(sum.probes);
    r.sim["rack.net_bytes"] = double(rk->net().bytesCarried());
    r.sim["rack.net_mig_bytes"] = double(rk->net().migrationBytes());
    r.sim["rack.net_peak_util"] = sum.netPeakUtilization;

    // Detection and rejoin latency of the crashed board.
    sim::Tick down_at = 0, rejoin_at = 0;
    if (!sc.faults.empty()) {
        for (const rack::HealthTransition &t :
             sched->health().transitions()) {
            if (t.board != sc.crashBoard)
                continue;
            if (!down_at && t.to == rack::BoardHealth::Down)
                down_at = t.at;
            else if (down_at && !rejoin_at &&
                     t.from == rack::BoardHealth::Probation &&
                     t.to == rack::BoardHealth::Healthy)
                rejoin_at = t.at;
        }
        if (!down_at)
            r.errors.push_back("the crashed board was never "
                               "declared Down");
    }
    r.sim["rack.detect_ms"] =
        down_at ? double(down_at - sc.crashAt) * 1e-9 : 0.0;
    r.sim["rack.rejoin_ms"] =
        rejoin_at ? double(rejoin_at - sc.crashAt) * 1e-9 : 0.0;

    Digest dig;
    dig.add(snap);
    dig.add("sim.finalTick", double(rk->now()));
    for (const auto &[k, v] : r.sim)
        dig.add(k, v);
    r.digest = dig.value();
    return r;
}

Repeat
runRackServe(const RunConfig &cfg)
{
    RackScenario sc;
    sc.place.replication = 2;
    // Bursts on the diurnal peak overrun the default 64-deep DPU
    // queues on some seeds; a deeper queue absorbs them, so every
    // request is served and the load stays open loop.
    sc.offload.queueDepth = 256;
    sc.nRequests = cfg.smoke ? 360 : 7200; // ~25 ms
    sc.trace.ratePerSec = 60'000.0 * 4;
    sc.trace.durationSec = cfg.smoke ? 0.0025 : 0.035;
    sc.trace.diurnalAmp = 0.5;
    sc.trace.diurnalPeriodSec = 0.025;
    sc.trace.zipf = 0.99;
    sc.trace.seed = cfg.seed;
    sc.trace.nApps = unsigned(rack::servingMix().size());
    return runRack(cfg, sc);
}

Repeat
runRackOutage(const RunConfig &cfg)
{
    RackScenario sc;
    sc.crashBoard = 1;
    sc.crashAt = cfg.smoke ? sim::Tick(1'000'000'000)  // 1 ms
                           : sim::Tick(8'000'000'000); // 8 ms
    sc.faults = fmt("rack.boardCrash@p=1,unit=%u,from=%" PRIu64
                    ",max=1",
                    sc.crashBoard, std::uint64_t(sc.crashAt));

    // The bench_rack --outage knobs (balancer, heartbeat detection
    // and repair all live), with the admission cap raised from 35 to
    // 60 per board per ms: the three surviving boards then admit the
    // whole load, so requests reroute but none is refused.
    rack::PlacementParams &pl = sc.place;
    pl.replication = 2;
    pl.admitWindow = sim::Tick(1'000'000'000); // 1 ms
    pl.admitPerWindow = 60;
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

    sc.nRequests = cfg.smoke ? 360 : 3600; // 3 ms / 30 ms
    sc.trace.ratePerSec = 120'000;
    sc.trace.durationSec = cfg.smoke ? 0.004 : 0.036;
    sc.trace.diurnalAmp = 0;
    sc.trace.burstsPerSec = 0;
    sc.trace.seed = cfg.seed;
    sc.trace.nApps = unsigned(rack::servingMix().size());
    return runRack(cfg, sc);
}

// ----------------------------------------------------------------
// board_reshard: live re-sharding under a skew step
// ----------------------------------------------------------------

/** A fixed-cost job: every lane sleeps 20 us, so a DPU's capacity
 *  is a function of the overheads alone and the apps do no work. */
host::JobRequest
sleepJob()
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

Repeat
runBoardReshard(const RunConfig &cfg)
{
    sim::faultPlane().reset();
    Repeat r;
    const unsigned n_dpus = 4, key_parts = 16;

    const PhaseTimer setup;
    std::unique_ptr<board::Board> brd;
    std::unique_ptr<host::BoardScheduler> sched;
    std::vector<rack::TraceEvent> trace;
    {
        Scope s(cfg.spans, "setup");
        {
            Scope b(cfg.spans, "topo.buildBoard", "setup.topo");
            // The bench_board --skew-step balancer knobs.
            board::BalanceParams bal;
            bal.keyPartitions = key_parts;
            bal.window = sim::Tick(250'000'000); // 0.25 ms
            bal.ewmaAlpha = 0.7;
            bal.hotFactor = 1.1;
            bal.maxMigrationsPerWindow = 2;
            bal.minPartitionLoad = 2.0;
            // One epoch worker: a second one waits for its partner
            // at a spin barrier three times per epoch, so whenever
            // the host takes either CPU away, the other burns CPU
            // and wall time waiting. Simulated results are the same
            // at every thread count.
            topo::ClusterTopology topo =
                topo::ClusterTopology::board(n_dpus)
                    .boardBalance(bal)
                    .threads(1);
            const std::string err = topo.validate();
            if (!err.empty()) {
                r.errors.push_back("board topology invalid: " + err);
                return r;
            }
            brd = topo.buildBoard();
        }
        {
            Scope c(cfg.spans, "host.BoardScheduler", "setup.sched");
            host::OffloadParams op;
            op.nCores = 8; // the balancer's engine core stays free
            op.groupSize = 4;
            op.queueDepth = 1024; // the hot shard queues, not rejects
            sched = std::make_unique<host::BoardScheduler>(
                *brd, op, host::makeHashRouter());
        }
        Scope g(cfg.spans, "rack.generateTrace", "setup.inputs");
        // Keys below keyPartitions are partitions; the step lands
        // on every partition co-homed with partition 0.
        std::vector<std::uint64_t> hot;
        const unsigned hot_dpu = sched->partitions().homeOf(0, n_dpus);
        for (unsigned p = 0; p < key_parts; ++p)
            if (sched->partitions().homeOf(p, n_dpus) == hot_dpu)
                hot.push_back(p);
        rack::TraceConfig tc;
        tc.ratePerSec = 200'000;
        tc.durationSec = cfg.smoke ? 0.05 : 1.0;
        tc.diurnalAmp = 0;
        tc.burstsPerSec = 0;
        tc.nKeys = key_parts;
        tc.zipf = 0;
        tc.hotStepAtSec = tc.durationSec / 4;
        tc.hotStepFraction = 0.9;
        tc.hotStepKeys = hot;
        tc.seed = cfg.seed;
        trace = rack::generateTrace(tc);
    }
    setup.stop(r.setupS, r.setupCpuS);

    if (cfg.spans)
        profileBoard(*brd);

    const PhaseTimer measured;
    host::ServingSummary sum;
    sim::StatsSnapshot snap;
    {
        Scope m(cfg.spans, "measured");
        {
            Scope o(cfg.spans, "host.offer", "wall.admit");
            for (const rack::TraceEvent &ev : trace)
                sched->offer(ev.at, ev.key, sleepJob());
        }
        {
            Scope run(cfg.spans, "board.run", "wall.run");
            sched->run();
        }
        Scope s(cfg.spans, "board.summary", "wall.summary");
        sum = sched->summary();
        snap = sim::StatsRegistry::instance().snapshot();
    }
    measured.stop(r.wallS, r.cpuS);

    JobFold jobs;
    for (unsigned d = 0; d < sched->nShards(); ++d)
        jobs.add(sched->shard(d), fmt("dpu %u", d), r);
    jobs.finish(r);
    r.attempted = trace.size();
    r.failed = trace.size() - std::min<std::uint64_t>(
                                  trace.size(), jobs.validCompletions);
    if (sum.completed != trace.size())
        r.errors.push_back(fmt("%" PRIu64 " of %zu jobs completed",
                               sum.completed, trace.size()));
    if (!brd->allFinished())
        r.errors.push_back("the board did not drain its kernels");

    // Every partition image, wherever it lives now, must still be
    // its seed pattern byte for byte.
    const board::BoardBalancer &bal = *sched->balancer();
    for (unsigned p = 0; p < key_parts; ++p) {
        const std::vector<std::uint8_t> img = bal.stateImage(p);
        for (std::uint64_t i = 0; i < img.size(); ++i)
            if (img[i] != board::BoardBalancer::statePattern(p, i)) {
                r.errors.push_back(
                    fmt("partition %u image differs at byte %" PRIu64,
                        p, i));
                break;
            }
    }

    servingMetrics(sum, sum.throughputJobsPerSec, r);
    chipLayers(Folded(snap), brd->now(), r);
    foldBoard(*brd, r);
    const board::BoardBalancer::Report &rep = bal.report();
    r.sim["board.balance_committed"] = double(rep.committed);
    r.sim["board.balance_aborted"] = double(rep.aborted);
    r.sim["board.balance_state_bytes"] = double(rep.stateBytes);
    r.sim["board.balance_forwarded"] = double(rep.forwarded);

    Digest dig;
    dig.add(snap);
    dig.add("sim.finalTick", double(brd->now()));
    for (const auto &[k, v] : r.sim)
        dig.add(k, v);
    r.digest = dig.value();
    return r;
}

} // namespace

const std::vector<Workload> &
workloads()
{
    static const std::vector<Workload> all = {
        {"fig14_apps",
         "single-chip core, DMS, DDR and ATE model work with no "
         "scheduler, board or rack",
         0, 4242, runFig14},
        {"rack_serve",
         "open-loop serving at ~75% of rack capacity; host time "
         "splits between kernels and job staging",
         7, 7007, runRackServe},
        {"rack_outage",
         "rack tier under a board crash: detection, repair, "
         "re-replication and balancer migrations",
         19, 1919, runRackOutage},
        {"board_reshard",
         "board balancer, DMS hand-off chains, link migration DMA "
         "and the epoch runner; apps do no work",
         5, 5005, runBoardReshard},
    };
    return all;
}

const std::vector<std::string> &
layerCounts()
{
    static const std::vector<std::string> all = [] {
        std::vector<std::string> v = {
            "users_per_sim_s", "sim_p50_us", "sim_p99_us",
            "sim_dpu_ms", "paper_gain_err",
            "sim.events", "sim.epochs", "sim.empty_epochs",
            "sim.idle_skips", "core.ops", "mem.ddr_bytes",
            "mem.ddr_busy_frac", "mem.ddr_row_hit_ratio",
            "dms.descriptors", "dms.bytes", "mbc.delivered",
            "host.queue_wait_p50_us", "host.queue_wait_p99_us",
            "host.service_p50_us", "host.service_p99_us",
            "host.timed_out", "host.dpu_rejected", "host.requeued",
            "host.validation_failed", "board.link_bytes",
            "board.link_mig_bytes", "board.link_drop_bytes",
            "board.balance_committed", "board.balance_aborted",
            "board.balance_state_bytes", "board.balance_forwarded",
            "rack.admitted", "rack.rejected", "rack.shed",
            "rack.failovers", "rack.admit_reroutes",
            "rack.mig_committed", "rack.repairs_committed",
            "rack.probes", "rack.net_bytes", "rack.net_mig_bytes",
            "rack.net_peak_util", "rack.detect_ms", "rack.rejoin_ms",
        };
        for (const apps::AppSpec &spec : apps::registry()) {
            v.push_back("apps." + spec.name + ".sim_dpu_ms");
            v.push_back("apps." + spec.name + ".gain");
        }
        return v;
    }();
    return all;
}

const std::vector<std::string> &
hostBuckets()
{
    static const std::vector<std::string> all = [] {
        std::vector<std::string> v = {
            "setup.inputs", "setup.topo", "setup.sched", "wall.admit",
            "wall.run", "wall.summary", "sim.outside_events"};
        for (unsigned t = 0; t < sim::nEvTags; ++t)
            v.push_back(std::string(sim::evTagName(sim::EvTag(t))) +
                        ".wall");
        for (const apps::AppSpec &spec : apps::registry())
            v.push_back("apps." + spec.name + ".wall");
        return v;
    }();
    return all;
}

} // namespace dpubench
