/**
 * @file
 * Offload-scheduler tests: admission control under a bounded queue,
 * deadline reaping of wedged and slow kernels (the simulator must
 * never hang on a fault), late-ack group reclamation, and the
 * closed-loop resubmission path. Fault injection uses the
 * JobRequest::makeJob hook to plant kernels the registry would
 * never produce.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "host/offload.hh"
#include "rt/dms_ctl.hh"
#include "sim/fault.hh"
#include "soc/soc.hh"

using namespace dpu;
using namespace dpu::host;

namespace {

/** A trivial job: every lane charges a few ALU ops and acks. */
JobRequest
quickJob()
{
    JobRequest req;
    req.makeJob = [](const apps::ServingContext &) {
        apps::ServingJob job;
        job.stage = [] {};
        job.lane = [](core::DpCore &c, unsigned) { c.alu(16); };
        return job;
    };
    return req;
}

/** A job whose lanes burn @p cycles before acking. */
JobRequest
slowJob(std::uint64_t cycles)
{
    JobRequest req;
    req.makeJob = [cycles](const apps::ServingContext &) {
        apps::ServingJob job;
        job.stage = [] {};
        job.lane = [cycles](core::DpCore &c, unsigned) {
            c.sleepCycles(cycles);
        };
        return job;
    };
    return req;
}

/** A job whose lane 0 wedges forever; other lanes ack normally. */
JobRequest
wedgedJob()
{
    JobRequest req;
    req.makeJob = [](const apps::ServingContext &) {
        apps::ServingJob job;
        job.stage = [] {};
        job.lane = [](core::DpCore &c, unsigned lane) {
            if (lane == 0)
                c.blockUntil([] { return false; });
            c.alu(16);
        };
        return job;
    };
    return req;
}

/** One-group chip (4 managed cores) for serialization tests. */
OffloadParams
oneGroup()
{
    OffloadParams p;
    p.nCores = 4;
    p.groupSize = 4;
    return p;
}

/** @p req, whose makeJob also holds a copy of @p token: the
 *  token's use_count() counts the live copies of such requests. */
JobRequest
holding(const std::shared_ptr<int> &token, JobRequest req)
{
    req.makeJob = [token, make = std::move(req.makeJob)](
                      const apps::ServingContext &ctx) {
        return make(ctx);
    };
    return req;
}

} // namespace

TEST(OffloadScheduler, MixedRegistryLoadCompletesAndValidates)
{
    soc::Soc s;
    OffloadScheduler sched(s, {});

    const char *apps[] = {"filter", "groupby-low", "hll-crc",
                          "json",   "filter",      "groupby-low"};
    sim::Tick t = 0;
    unsigned i = 0;
    for (const char *app : apps) {
        JobRequest req;
        req.app = app;
        const apps::AppSpec *spec = apps::findApp(app);
        ASSERT_NE(spec, nullptr);
        apps::ConfigHandle cfg = spec->makeConfig();
        // Shrink every request to serving size.
        ASSERT_TRUE(spec->set(cfg, "seed", "11"));
        if (std::string(app) == "filter") {
            ASSERT_TRUE(spec->set(cfg, "rowsPerCore", "4096"));
        }
        if (std::string(app) == "groupby-low") {
            ASSERT_TRUE(spec->set(cfg, "nRows", "16384"));
            ASSERT_TRUE(spec->set(cfg, "ndv", "128"));
        }
        if (std::string(app) == "hll-crc") {
            ASSERT_TRUE(spec->set(cfg, "nElements", "8192"));
            ASSERT_TRUE(spec->set(cfg, "cardinality", "2048"));
            ASSERT_TRUE(spec->set(cfg, "pBits", "10"));
        }
        if (std::string(app) == "json") {
            ASSERT_TRUE(spec->set(cfg, "nRecords", "512"));
        }
        req.cfg = std::move(cfg);
        req.seed = 100 + i++;
        sched.enqueueAt(t += sim::Tick(50e6), std::move(req));
    }

    sched.start();
    s.run();

    const ServingSummary sum = sched.summary();
    EXPECT_EQ(sum.submitted, 6u);
    EXPECT_EQ(sum.completed, 6u);
    EXPECT_EQ(sum.timedOut, 0u);
    EXPECT_EQ(sum.rejected, 0u);
    EXPECT_EQ(sum.validationFailed, 0u);
    for (const JobRecord &rec : sched.jobs()) {
        EXPECT_EQ(rec.state, JobState::Completed);
        EXPECT_TRUE(rec.valid) << rec.app;
        EXPECT_GT(rec.latencyUs(), 0.0);
    }
    EXPECT_LE(sum.p50Us, sum.p95Us);
    EXPECT_LE(sum.p95Us, sum.p99Us);
    EXPECT_LE(sum.p99Us, sum.maxUs);
    EXPECT_GT(sum.throughputJobsPerSec, 0.0);
    EXPECT_TRUE(s.allFinished());
    EXPECT_TRUE(s.a9().finished());
}

TEST(OffloadScheduler, RunEndsAtTheLastJobNotAQueuedDeadline)
{
    soc::Soc s;
    OffloadParams p;
    p.nCores = 8;
    p.groupSize = 4;
    OffloadScheduler sched(s, p);

    // 20 us lanes offered every 10 us: the A9's every wait ends
    // on an ack or an arrival, long before its 50 ms job deadline.
    for (unsigned i = 0; i < 200; ++i)
        sched.enqueueAt(sim::Tick(i) * 10'000'000, slowJob(16'000));

    sched.start();
    const sim::Tick end = s.run();

    EXPECT_EQ(sched.summary().completed, 200u);
    sim::Tick last = 0;
    for (const JobRecord &rec : sched.jobs())
        last = std::max(last, rec.finishedAt);
    EXPECT_GE(end, last);
    EXPECT_LE(end, last + 1'000'000)
        << "the run must end within 1 us of the last job";
    EXPECT_TRUE(s.allFinished());
    EXPECT_TRUE(s.a9().finished());
}

TEST(OffloadScheduler, WedgedKernelIsReapedAndQueueKeepsDraining)
{
    soc::Soc s;
    OffloadParams p;
    p.nCores = 8; // two groups: the wedge costs one, not the chip
    p.groupSize = 4;
    OffloadScheduler sched(s, p);

    // The wedge arrives first and grabs a group; everything behind
    // it must still drain through the surviving group.
    JobRequest wedge = wedgedJob();
    wedge.timeout = sim::Tick(1e9); // 1 ms
    sched.enqueueAt(0, std::move(wedge));
    for (unsigned i = 0; i < 4; ++i)
        sched.enqueueAt(1000 + i, quickJob());

    sched.start();
    s.run(); // must return: a wedged kernel never hangs the sim

    const ServingSummary sum = sched.summary();
    EXPECT_EQ(sum.submitted, 5u);
    EXPECT_EQ(sum.timedOut, 1u);
    EXPECT_EQ(sum.completed, 4u);
    EXPECT_EQ(sum.wedgedGroups, 1u);
    EXPECT_EQ(sched.jobs()[0].state, JobState::TimedOut);
    // The wedged lane is the one fiber left parked.
    EXPECT_EQ(s.unfinishedCores().size(), 1u);
    EXPECT_TRUE(s.a9().finished());
}

TEST(OffloadScheduler, QueuedJobPastDeadlineIsReapedUndispatched)
{
    soc::Soc s;
    OffloadScheduler sched(s, oneGroup());

    // ~2.5 ms of kernel on the only group.
    sched.enqueueAt(0, slowJob(2'000'000));
    JobRequest doomed = quickJob();
    doomed.timeout = sim::Tick(1e9); // 1 ms — expires while queued
    sched.enqueueAt(1, std::move(doomed));
    sched.enqueueAt(2, quickJob()); // default deadline: survives

    sched.start();
    s.run();

    const ServingSummary sum = sched.summary();
    EXPECT_EQ(sum.completed, 2u);
    EXPECT_EQ(sum.timedOut, 1u);
    const JobRecord &doomed_rec = sched.jobs()[1];
    EXPECT_EQ(doomed_rec.state, JobState::TimedOut);
    EXPECT_EQ(doomed_rec.dispatchedAt, 0u)
        << "the doomed job must never have reached a group";
    EXPECT_EQ(sched.jobs()[2].state, JobState::Completed);
    EXPECT_TRUE(s.allFinished());
}

TEST(OffloadScheduler, BoundedQueueRejectsOverflow)
{
    soc::Soc s;
    OffloadParams p = oneGroup();
    p.queueDepth = 2;
    OffloadScheduler sched(s, p);

    for (unsigned i = 0; i < 10; ++i)
        sched.enqueueAt(0, quickJob());

    sched.start();
    s.run();

    const ServingSummary sum = sched.summary();
    EXPECT_EQ(sum.submitted, 10u);
    EXPECT_EQ(sum.accepted, 2u);
    EXPECT_EQ(sum.rejected, 8u);
    EXPECT_EQ(sum.completed, 2u);
    unsigned rejected = 0;
    for (const JobRecord &rec : sched.jobs())
        rejected += rec.state == JobState::Rejected;
    EXPECT_EQ(rejected, 8u);
    EXPECT_TRUE(s.allFinished());
}

TEST(OffloadScheduler, LateAckReclaimsQuarantinedGroup)
{
    soc::Soc s;
    OffloadScheduler sched(s, oneGroup());

    // Finite but slower than its deadline: reaped at 1 ms, acks at
    // ~2.5 ms, and the group must then serve the follow-up job.
    JobRequest slow = slowJob(2'000'000);
    slow.timeout = sim::Tick(1e9);
    sched.enqueueAt(0, std::move(slow));
    sched.enqueueAt(1, quickJob());

    sched.start();
    s.run();

    const ServingSummary sum = sched.summary();
    EXPECT_EQ(sum.timedOut, 1u);
    EXPECT_EQ(sum.lateJobs, 1u);
    EXPECT_EQ(sum.completed, 1u);
    EXPECT_EQ(sum.wedgedGroups, 0u)
        << "a late ack must reclaim the quarantined group";
    EXPECT_EQ(sched.jobs()[0].state, JobState::TimedOut);
    EXPECT_EQ(sched.jobs()[1].state, JobState::Completed);
    EXPECT_GT(sched.jobs()[1].dispatchedAt,
              sched.jobs()[0].finishedAt)
        << "the follow-up can only dispatch after the reclamation";
    EXPECT_TRUE(s.allFinished());
}

TEST(OffloadScheduler, ClosedLoopResubmitsFromCompletionHook)
{
    soc::Soc s;
    OffloadScheduler sched(s, oneGroup());

    const unsigned target = 12;
    unsigned issued = 2;
    sched.enqueueAt(0, quickJob());
    sched.enqueueAt(0, quickJob());
    sched.onComplete([&](const JobRecord &) {
        if (issued < target) {
            ++issued;
            EXPECT_TRUE(sched.submitNow(quickJob()));
        }
    });

    sched.start();
    s.run();

    EXPECT_EQ(sched.summary().completed, target);
    EXPECT_EQ(sched.summary().rejected, 0u);
    EXPECT_TRUE(s.allFinished());
    EXPECT_TRUE(s.a9().finished());
}

// ----------------------------------------------------------------
// Recovery paths: requeue, attempt budgets, failure attribution,
// and dispatch-id-keyed late-ack reclamation.
// ----------------------------------------------------------------

namespace {

/** Two-group chip: a fault costs one group, not the test. */
OffloadParams
twoGroups()
{
    OffloadParams p;
    p.nCores = 8;
    p.groupSize = 4;
    return p;
}

} // namespace

TEST(OffloadScheduler, ReapedJobRequeuesAndCompletesElsewhere)
{
    soc::Soc s;
    OffloadParams p = twoGroups();
    p.maxAttempts = 2;
    OffloadScheduler sched(s, p);

    // First dispatch wedges lane 0 forever; the retry is clean.
    auto dispatches = std::make_shared<unsigned>(0);
    JobRequest req;
    req.timeout = sim::Tick(1e9); // 1 ms
    req.makeJob = [dispatches](const apps::ServingContext &) {
        const unsigned n = (*dispatches)++;
        apps::ServingJob job;
        job.stage = [] {};
        job.lane = [n](core::DpCore &c, unsigned lane) {
            if (n == 0 && lane == 0)
                c.blockUntil([] { return false; });
            c.alu(16);
        };
        return job;
    };
    sched.enqueueAt(0, std::move(req));

    sched.start();
    s.run();

    const ServingSummary sum = sched.summary();
    EXPECT_EQ(sum.completed, 1u);
    EXPECT_EQ(sum.timedOut, 0u);
    EXPECT_EQ(sum.requeued, 1u);
    EXPECT_EQ(sum.quarantines, 1u);
    EXPECT_EQ(sum.wedgedGroups, 1u)
        << "the wedged group stays quarantined";
    const JobRecord &rec = sched.jobs()[0];
    EXPECT_EQ(rec.state, JobState::Completed);
    EXPECT_EQ(rec.attempts, 2u);
    EXPECT_EQ(s.unfinishedCores().size(), 1u);
    EXPECT_TRUE(s.a9().finished());
}

TEST(OffloadScheduler, ExhaustedAttemptsReportDeadlineCause)
{
    soc::Soc s;
    OffloadParams p = twoGroups();
    p.maxAttempts = 2;
    OffloadScheduler sched(s, p);

    JobRequest wedge = wedgedJob(); // wedges on every attempt
    wedge.timeout = sim::Tick(1e9);
    sched.enqueueAt(0, std::move(wedge));

    sched.start();
    s.run();

    const ServingSummary sum = sched.summary();
    EXPECT_EQ(sum.completed, 0u);
    EXPECT_EQ(sum.timedOut, 1u);
    EXPECT_EQ(sum.requeued, 1u);
    EXPECT_EQ(sum.quarantines, 2u);
    EXPECT_EQ(sum.wedgedGroups, 2u);
    EXPECT_EQ(sum.wedgeTimeouts, 0u)
        << "a parked fiber is not a DMAC wedge";
    const JobRecord &rec = sched.jobs()[0];
    EXPECT_EQ(rec.state, JobState::TimedOut);
    EXPECT_EQ(rec.attempts, 2u);
    EXPECT_STREQ(rec.cause, "deadline");
    EXPECT_LT(sum.availability, 1.0);
    EXPECT_TRUE(s.a9().finished());
}

TEST(OffloadScheduler, HungDmacTimeoutIsAttributedToTheWedge)
{
    sim::faultPlane().reset();
    sim::faultPlane().configure("dms.wedge@nth=1,max=1", 3);

    soc::Soc s;
    OffloadScheduler sched(s, twoGroups());

    // Lane 0 pushes one DMS descriptor and waits unbounded; the
    // injected DMAC wedge drops its completion, so the job is
    // reaped and the reaper must blame the hung DMAC.
    JobRequest req;
    req.timeout = sim::Tick(1e9);
    req.makeJob = [](const apps::ServingContext &ctx) {
        apps::ServingJob job;
        job.stage = [] {};
        job.lane = [ctx](core::DpCore &c, unsigned lane) {
            if (lane != 0) {
                c.alu(16);
                return;
            }
            rt::DmsCtl ctl(c, ctx.soc->dmsFor(c.id()));
            ctl.ddrToDmem()
                .rows(64)
                .width(4)
                .from(ctx.arena)
                .to(0)
                .event(0)
                .push(0);
            ctl.wfe(0); // hangs: the wedge never completes it
        };
        return job;
    };
    sched.enqueueAt(0, std::move(req));
    sched.enqueueAt(1, quickJob()); // the other group still serves

    sched.start();
    s.run();
    sim::faultPlane().reset();

    const ServingSummary sum = sched.summary();
    EXPECT_EQ(sum.completed, 1u);
    EXPECT_EQ(sum.timedOut, 1u);
    EXPECT_EQ(sum.wedgeTimeouts, 1u);
    const JobRecord &rec = sched.jobs()[0];
    EXPECT_EQ(rec.state, JobState::TimedOut);
    EXPECT_STREQ(rec.cause, "dmsWedge");
    EXPECT_TRUE(s.a9().finished());
}

TEST(OffloadScheduler, LateAckFromOldDispatchReclaimsDuringRetry)
{
    soc::Soc s;
    OffloadParams p = twoGroups();
    p.maxAttempts = 2;
    OffloadScheduler sched(s, p);

    // Attempt 1 is slow-but-finite (reaped, acks late); attempt 2
    // is quick. The late acks carry the first dispatch id and must
    // reclaim the quarantined group — not be miscredited to the
    // job, which by then is completing on the other group.
    auto dispatches = std::make_shared<unsigned>(0);
    JobRequest req;
    req.timeout = sim::Tick(1e9); // 1 ms
    req.makeJob = [dispatches](const apps::ServingContext &) {
        const unsigned n = (*dispatches)++;
        apps::ServingJob job;
        job.stage = [] {};
        job.lane = [n](core::DpCore &c, unsigned) {
            c.sleepCycles(n == 0 ? 2'000'000 : 1'000);
        };
        return job;
    };
    sched.enqueueAt(0, std::move(req));
    // A late arrival keeps the host listening past the late acks.
    sched.enqueueAt(sim::Tick(4e9), quickJob());

    sched.start();
    s.run();

    const ServingSummary sum = sched.summary();
    EXPECT_EQ(sum.completed, 2u);
    EXPECT_EQ(sum.timedOut, 0u);
    EXPECT_EQ(sum.requeued, 1u);
    EXPECT_EQ(sum.quarantines, 1u);
    EXPECT_EQ(sum.lateJobs, 1u);
    EXPECT_EQ(sum.wedgedGroups, 0u)
        << "the late acks must reclaim the quarantined group";
    const JobRecord &rec = sched.jobs()[0];
    EXPECT_EQ(rec.state, JobState::Completed);
    EXPECT_EQ(rec.attempts, 2u);
    EXPECT_LT(sum.availability, 1.0);
    EXPECT_TRUE(s.allFinished());
    EXPECT_TRUE(s.a9().finished());
}

TEST(OffloadScheduler, NoResolvedRequestStaysHeld)
{
    soc::Soc s;
    OffloadParams p = oneGroup();
    p.queueDepth = 2;
    OffloadScheduler sched(s, p);

    // Every way a request can end: completed, rejected by a burst
    // past the queue bound, reaped at its deadline (a wedged lane
    // keeps its group quarantined to the end) and timed out in the
    // queue behind that group.
    const auto token = std::make_shared<int>(0);
    for (unsigned i = 0; i < 4; ++i)
        sched.enqueueAt(sim::Tick(i) * 10'000'000,
                        holding(token, quickJob()));
    for (unsigned i = 0; i < 4; ++i)
        sched.enqueueAt(sim::Tick(100'000'000),
                        holding(token, quickJob()));
    JobRequest wedged = holding(token, wedgedJob());
    wedged.timeout = sim::Tick(1e9);
    sched.enqueueAt(sim::Tick(200'000'000), std::move(wedged));
    JobRequest stuck = holding(token, quickJob());
    stuck.timeout = sim::Tick(2e9);
    sched.enqueueAt(sim::Tick(300'000'000), std::move(stuck));
    EXPECT_EQ(token.use_count(), 11);

    sched.start();
    s.run();

    const ServingSummary sum = sched.summary();
    EXPECT_EQ(sum.submitted, 10u);
    EXPECT_EQ(sum.completed, 6u);
    EXPECT_EQ(sum.rejected, 2u);
    EXPECT_EQ(sum.timedOut, 2u);
    EXPECT_STREQ(sched.jobs()[8].cause, "deadline");
    EXPECT_STREQ(sched.jobs()[9].cause, "queue");
    EXPECT_EQ(token.use_count(), 1)
        << "the scheduler still holds a resolved request";
}

TEST(OffloadSchedulerDeathTest, HeldOpenAppendBeforeAnAdmittedOneDies)
{
    // The arrival queue pops what it admits, so the order check
    // must remember the last tick appended, not read the queue.
    EXPECT_DEATH(
        {
            soc::Soc s;
            OffloadScheduler sched(s, oneGroup());
            sched.holdOpen();
            sched.enqueueAt(sim::Tick(10'000'000), quickJob());
            sched.start();
            s.run(); // admits and serves it: the queue is empty
            if (sched.jobs().size() == 1)
                sched.enqueueAt(sim::Tick(5'000'000), quickJob());
        },
        "time-ordered");
}
