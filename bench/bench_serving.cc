/**
 * @file
 * Serving bench: the Section 2.4 deployment model under load. An
 * open-loop (Poisson arrivals at --rate jobs/s) or closed-loop
 * (--closed N outstanding) stream of mixed app requests flows
 * through the host offload scheduler: the A9 admits each request,
 * dispatches it to an idle 4-core group over MBC pointer messages,
 * and collects completion acks. Reports per-request latency
 * percentiles and sustained throughput, as a table and as a JSON
 * object (one line per run) for machine consumption.
 *
 * Fault injection goes through the unified fault plane
 * (sim/fault.hh): --faults takes a spec string, --wedge N is sugar
 * for N permanently stalled workers (core.stall@mag=0), --attempts
 * sets the scheduler's per-job retry budget, and --fault-sweep runs
 * a fixed set of fault scenarios back to back reporting availability
 * and tail latency for each.
 *
 * This is not a paper figure: the paper reports per-app gains
 * (Figure 14) but deployed the chip as a many-DPU database
 * appliance; this bench is the repro of that serving posture.
 */

#include <cmath>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "bench/report.hh"
#include "host/offload.hh"
#include "host/summary.hh"
#include "sim/fault.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"
#include "soc/soc.hh"

using namespace dpu;

namespace {

/** One slot of the request mix: app, weight, request sizing. */
struct MixEntry
{
    const char *app;
    double weight;
    std::initializer_list<
        std::pair<std::string_view, std::string_view>>
        opts;
};

/**
 * A database-appliance-flavoured mix: mostly scan/aggregate SQL
 * operators, some analytics, a trickle of heavy vision work. Sizes
 * are per-request (one 4-core group), not per-chip — they must fit
 * the group's DMEM working set and finish well inside the 50 ms
 * default deadline.
 */
const MixEntry servingMix[] = {
    {"filter", 0.30, {{"rowsPerCore", "16384"}}},
    {"groupby-low", 0.20, {{"nRows", "65536"}, {"ndv", "512"}}},
    {"hll-crc",
     0.15,
     {{"nElements", "32768"}, {"cardinality", "8192"},
      {"pBits", "12"}}},
    {"json", 0.15, {{"nRecords", "2048"}}},
    {"svm", 0.10, {{"nTest", "8192"}, {"dims", "64"}}},
    {"simsearch",
     0.05,
     {{"nDocs", "1024"}, {"vocab", "2048"}, {"nQueries", "1"}}},
    {"disparity",
     0.05,
     {{"width", "64"}, {"height", "32"}, {"maxShift", "8"}}},
};

const char *
stateName(host::JobState st)
{
    switch (st) {
    case host::JobState::Queued: return "queued";
    case host::JobState::Running: return "running";
    case host::JobState::Completed: return "completed";
    case host::JobState::TimedOut: return "timedOut";
    case host::JobState::Rejected: return "rejected";
    }
    return "?";
}

/** One serving run's shape. */
struct RunCfg
{
    double rate = 4000;
    unsigned nJobs = 32;
    unsigned closed = 0;
    unsigned wedge = 0;
    unsigned attempts = 1;
    std::uint64_t seed = 7;
    std::string faults;     ///< fault-plane spec ("" = clean run)
    const char *label = ""; ///< sweep case name ("" outside sweeps)
};

/**
 * Run one serving scenario end to end (fresh Soc, scheduler, fault
 * plane) and report it. @return 0 when every gate holds.
 */
int
runServing(const RunCfg &cfg)
{
    // --wedge N rides the fault plane: N workers park forever just
    // before running their lane — the same failure the old ad-hoc
    // wedged-job hook planted, now shared with tests and the chaos
    // harness. nth=13 spaces the fires across distinct dispatches.
    std::string spec = cfg.faults;
    if (cfg.wedge > 0) {
        char rule[64];
        std::snprintf(rule, sizeof(rule),
                      "core.stall@nth=13,max=%u,mag=0", cfg.wedge);
        if (!spec.empty())
            spec += ';';
        spec += rule;
    }
    sim::faultPlane().reset();
    if (!spec.empty())
        sim::faultPlane().configure(spec, cfg.seed);

    soc::Soc s;
    host::OffloadParams op;
    op.maxAttempts = cfg.attempts;
    host::OffloadScheduler sched(s, op);

    double total_weight = 0;
    for (const MixEntry &m : servingMix)
        total_weight += m.weight;

    sim::Rng rng(cfg.seed);
    auto makeReq = [&]() {
        double u = rng.uniform() * total_weight;
        const MixEntry *pick = std::end(servingMix) - 1;
        for (const MixEntry &m : servingMix) {
            if (u < m.weight) {
                pick = &m;
                break;
            }
            u -= m.weight;
        }
        const apps::AppSpec *spec_ = apps::findApp(pick->app);
        sim_assert(spec_, "mix names unknown app \"%s\"", pick->app);
        apps::ConfigHandle appcfg = spec_->makeConfig();
        for (const auto &[k, v] : pick->opts)
            sim_assert(spec_->set(appcfg, k, v),
                       "bad option %.*s for %s", int(k.size()),
                       k.data(), pick->app);
        host::JobRequest req;
        req.app = pick->app;
        req.cfg = std::move(appcfg);
        req.seed = rng.next();
        return req;
    };

    unsigned issued = 0;
    if (cfg.closed > 0) {
        // Closed loop: keep `closed` requests outstanding until
        // nJobs have been issued (each completion resubmits).
        for (unsigned i = 0; i < cfg.closed && issued < cfg.nJobs;
             ++i) {
            sched.enqueueAt(0, makeReq());
            ++issued;
        }
        sched.onComplete([&](const host::JobRecord &) {
            if (issued < cfg.nJobs) {
                ++issued;
                (void)sched.submitNow(makeReq());
            }
        });
    } else {
        // Open loop: Poisson arrivals, rate jobs/s, oblivious to
        // completions (the queue absorbs or rejects bursts).
        sim_assert(cfg.rate > 0, "open-loop needs --rate > 0");
        sim::Tick t = 0;
        for (unsigned i = 0; i < cfg.nJobs; ++i) {
            const double gap_s =
                -std::log(1.0 - rng.uniform()) / cfg.rate;
            t += sim::Tick(gap_s * 1e12);
            sched.enqueueAt(t, makeReq());
            ++issued;
        }
    }

    sched.start();
    s.run();
    bench::flushTrace();

    const host::ServingSummary sum = sched.summary();

    // Steady-state window: drop the first and last 10% of
    // completions (warm-up ramp and tail drain).
    std::vector<double> window;
    {
        std::vector<const host::JobRecord *> done;
        for (const host::JobRecord &r : sched.jobs())
            if (r.state == host::JobState::Completed)
                done.push_back(&r);
        const std::size_t skip = done.size() / 10;
        for (std::size_t i = skip; i + skip < done.size(); ++i)
            window.push_back(done[i]->latencyUs());
        std::sort(window.begin(), window.end());
    }
    auto pct = [&](double q) { return host::percentileOf(window, q); };

    // Per-app completion counts and mean latency.
    struct AppAgg
    {
        std::uint64_t n = 0;
        double sumUs = 0;
    };
    std::map<std::string, AppAgg> perApp;
    for (const host::JobRecord &r : sched.jobs())
        if (r.state == host::JobState::Completed) {
            AppAgg &a = perApp[r.app];
            ++a.n;
            a.sumUs += r.latencyUs();
        }

    bench::row("  load: %s, %u jobs, %u groups of %u cores%s%s",
               cfg.closed ? "closed-loop" : "open-loop", issued,
               sched.nGroups(), op.groupSize,
               spec.empty() ? "" : ", faults: ",
               spec.empty() ? "" : spec.c_str());
    bench::row("  %-14s %8s %12s", "app", "done", "mean us");
    for (const auto &[name, agg] : perApp)
        bench::row("  %-14s %8llu %12.1f", name.c_str(),
                   (unsigned long long)agg.n,
                   agg.n ? agg.sumUs / double(agg.n) : 0.0);
    bench::row(
        "  completed %llu  timedOut %llu  rejected %llu  "
        "validationFailed %llu",
        (unsigned long long)sum.completed,
        (unsigned long long)sum.timedOut,
        (unsigned long long)sum.rejected,
        (unsigned long long)sum.validationFailed);
    bench::row(
        "  requeued %llu  quarantines %llu  wedgeTimeouts %llu  "
        "availability %.4f",
        (unsigned long long)sum.requeued,
        (unsigned long long)sum.quarantines,
        (unsigned long long)sum.wedgeTimeouts, sum.availability);
    bench::row("  latency us: p50 %.1f  p95 %.1f  p99 %.1f  "
               "mean %.1f  max %.1f",
               sum.p50Us, sum.p95Us, sum.p99Us, sum.meanUs,
               sum.maxUs);
    bench::row("  steady-state us: p50 %.1f  p95 %.1f  p99 %.1f",
               pct(0.50), pct(0.95), pct(0.99));
    bench::row("  throughput: %.0f jobs/s",
               sum.throughputJobsPerSec);

    // Machine-readable report (one line per run).
    {
        bench::Json j;
        j.field("bench", "serving")
            .field("case", cfg.label)
            .field("mode", cfg.closed ? "closed" : "open")
            .field("rateJobsPerSec", cfg.closed ? 0.0 : cfg.rate)
            .field("jobs", std::uint64_t(issued))
            .field("groups", std::uint64_t(sched.nGroups()))
            .field("groupSize", std::uint64_t(op.groupSize))
            .field("faults", spec)
            .field("maxAttempts", std::uint64_t(cfg.attempts));
        j.obj("counts")
            .field("submitted", sum.submitted)
            .field("accepted", sum.accepted)
            .field("rejected", sum.rejected)
            .field("completed", sum.completed)
            .field("timedOut", sum.timedOut)
            .field("validationFailed", sum.validationFailed)
            .field("lateJobs", sum.lateJobs)
            .field("wedgedGroups", sum.wedgedGroups)
            .field("requeued", sum.requeued)
            .field("quarantines", sum.quarantines)
            .field("wedgeTimeouts", sum.wedgeTimeouts)
            .end();
        j.field("availability", sum.availability);
        j.obj("latencyUs")
            .field("p50", sum.p50Us)
            .field("p95", sum.p95Us)
            .field("p99", sum.p99Us)
            .field("mean", sum.meanUs)
            .field("max", sum.maxUs)
            .end();
        j.obj("steadyStateUs")
            .field("p50", pct(0.50))
            .field("p95", pct(0.95))
            .field("p99", pct(0.99))
            .end();
        j.field("throughputJobsPerSec", sum.throughputJobsPerSec);
        j.arr("apps");
        for (const auto &[name, agg] : perApp)
            j.elem()
                .field("name", name)
                .field("completed", agg.n)
                .field("meanUs",
                       agg.n ? agg.sumUs / double(agg.n) : 0.0)
                .end();
        j.end();
    }

    sim::faultPlane().reset();

    // Functional gates for CI: everything submitted must resolve,
    // nothing may be left in flight, and something must complete.
    // Under injected faults a job may legitimately fail validation
    // (e.g. a descriptor error-completion leaves its output arena
    // unwritten) — the recovery contract is clean attribution, not
    // correctness of a faulted lane — so the validation gate only
    // binds on clean runs. Every injected wedge must be reaped as a
    // timeout when retries are off.
    if (sum.completed + sum.timedOut + sum.rejected !=
            sum.submitted ||
        sum.completed == 0) {
        std::fprintf(stderr, "serving bench failed its gates\n");
        return 1;
    }
    if (spec.empty() && sum.validationFailed != 0) {
        std::fprintf(stderr, "clean run failed validation\n");
        return 1;
    }
    if (cfg.wedge > 0 && cfg.attempts <= 1 &&
        sum.timedOut < cfg.wedge) {
        std::fprintf(stderr, "wedged jobs not all reaped\n");
        return 1;
    }
    for (const host::JobRecord &r : sched.jobs())
        if (r.state == host::JobState::Queued ||
            r.state == host::JobState::Running) {
            std::fprintf(stderr, "job %llu left %s\n",
                         (unsigned long long)r.id,
                         stateName(r.state));
            return 1;
        }
    return 0;
}

/** The --fault-sweep scenarios: fixed specs, one run each. */
struct SweepEntry
{
    const char *name;
    const char *spec;
};

const SweepEntry faultSweep[] = {
    {"none", ""},
    {"ateDelay", "ate.delay@p=0.05,mag=2000000"},
    {"mbcDrop", "mbc.drop@nth=40,max=2"},
    {"memDegrade", "mem.degrade@from=1000000,to=8000000,mag=4"},
    {"coreStall", "core.stall@nth=9,max=3,mag=400000"},
    {"descError", "dms.descError@p=0.02,max=3"},
};

} // namespace

int
main(int argc, char **argv)
{
    sim::setVerbose(false);
    const bool smoke = bench::smokeRun(argc, argv);

    RunCfg cfg;
    cfg.rate =
        std::atof(bench::argValue(argc, argv, "--rate", "4000"));
    cfg.nJobs = unsigned(std::atoi(bench::argValue(
        argc, argv, "--jobs", smoke ? "32" : "512")));
    cfg.closed = unsigned(
        std::atoi(bench::argValue(argc, argv, "--closed", "0")));
    cfg.wedge = unsigned(
        std::atoi(bench::argValue(argc, argv, "--wedge", "0")));
    cfg.attempts = unsigned(
        std::atoi(bench::argValue(argc, argv, "--attempts", "1")));
    cfg.seed = std::strtoull(
        bench::argValue(argc, argv, "--seed", "7"), nullptr, 10);
    cfg.faults = bench::argValue(argc, argv, "--faults", "");

    bench::header("Serving",
                  "offload scheduler under mixed-app load");

    if (bench::flag(argc, argv, "--fault-sweep")) {
        // Sweep a fixed fault menu with retries on, reporting
        // availability and tail latency per scenario.
        int rc = 0;
        for (const SweepEntry &e : faultSweep) {
            RunCfg c = cfg;
            c.faults = e.spec;
            c.label = e.name;
            c.wedge = 0;
            c.attempts = std::max(cfg.attempts, 2u);
            bench::row("-- fault sweep: %s --", e.name);
            rc |= runServing(c);
        }
        return rc;
    }

    return runServing(cfg);
}
