#include "host/offload.hh"

#include <algorithm>

#include "host/summary.hh"
#include "sim/fault.hh"
#include "sim/logging.hh"
#include "sim/trace.hh"

namespace dpu::host {

namespace {

/** Worker shutdown sentinel (no valid dispatch encodes to it). */
constexpr std::uint64_t shutdownMsg = ~0ull;

/** Host -> worker dispatch message (carries the dispatch id, not
 *  the job id: requeued jobs get a fresh id per dispatch so stale
 *  acks from an earlier attempt can never credit a later one). */
std::uint64_t
dispatchMsg(std::uint64_t dispatch_id, unsigned group)
{
    return (dispatch_id << 8) | group;
}

/** Worker -> host completion ack. */
std::uint64_t
ackMsg(std::uint64_t dispatch_id, unsigned group, unsigned lane)
{
    return (dispatch_id << 16) | (std::uint64_t(group) << 8) | lane;
}

/** Trace track ids on TraceCat::Soc. */
constexpr std::uint32_t hostTid = 0x500;
constexpr std::uint32_t groupTid = 0x510;

} // namespace

OffloadScheduler::OffloadScheduler(soc::Soc &soc_, OffloadParams params)
    : soc(soc_), p(std::move(params)), stats(p.statName)
{
    sim_assert(p.groupSize > 0 && p.nCores % p.groupSize == 0,
               "group size %u must divide the %u managed cores",
               p.groupSize, p.nCores);
    sim_assert(p.nCores <= soc.nCores(),
               "scheduler manages %u cores but the chip has %u",
               p.nCores, soc.nCores());
    const unsigned n_groups = p.nCores / p.groupSize;
    sim_assert(n_groups <= 0xff, "group id must fit a message byte");
    groups.resize(n_groups);
    for (unsigned g = 0; g < n_groups; ++g) {
        groups[g].base = g * p.groupSize;
        groups[g].size = p.groupSize;
        sim::tracer().nameTrack(sim::TraceCat::Soc, groupTid + g,
                                "sched.group" + std::to_string(g));
    }
    sim::tracer().nameTrack(sim::TraceCat::Soc, hostTid, "a9.sched");
}

mem::Addr
OffloadScheduler::arenaOf(unsigned group) const
{
    return arenaBase + std::uint64_t(group) * arenaBytesPerGroup;
}

void
OffloadScheduler::enqueueAt(sim::Tick when, JobRequest req)
{
    if (started) {
        // Held-open appends ride the already-sorted tail: the
        // stepped driver forwards offers window by window, so
        // time order comes for free and the queue stays sorted.
        sim_assert(open, "arrivals must precede start() unless "
                         "the driver is held open");
        sim_assert(when >= lastArrival,
                   "held-open arrivals must be time-ordered");
        soc.a9().wakeBy(when);
    }
    lastArrival = std::max(lastArrival, when);
    arrivals.push_back({when, std::move(req)});
}

void
OffloadScheduler::start()
{
    sim_assert(!started, "scheduler already started");
    started = true;
    // Arrivals usually come time-ordered; sorting those anyway
    // moves every request through the merge passes for nothing.
    const auto earlier = [](const Arrival &a, const Arrival &b) {
        return a.when < b.when;
    };
    if (!std::is_sorted(arrivals.begin(), arrivals.end(), earlier))
        std::stable_sort(arrivals.begin(), arrivals.end(), earlier);

    // Persistent worker loop on every managed core: receive a
    // dispatch pointer, run the group's kernel lane, ack the host.
    for (unsigned id = 0; id < p.nCores; ++id) {
        soc.start(id, [this, id](core::DpCore &c) {
            mbc::Mbc &mbc = soc.mbc();
            for (;;) {
                std::uint64_t msg = mbc.recv(c);
                if (msg == shutdownMsg)
                    break;
                const unsigned g = unsigned(msg & 0xff);
                const std::uint64_t did = msg >> 8;
                Group &grp = groups[g];
                const unsigned lane = id - grp.base;
                // The message is a pointer: chase it to the job
                // descriptor the driver wrote in DRAM.
                c.cycles(60);
                // Fault plane: stall this worker before its lane
                // runs — mag cycles, or forever when mag is 0 (a
                // hung core; the job is reaped at its deadline).
                std::uint64_t stall = 0;
                if (sim::faultPlane().active() &&
                    sim::faultPlane().fires(sim::FaultSite::CoreStall,
                                            c.now(), int(id),
                                            &stall)) {
                    DPU_TRACE_INSTANT(sim::TraceCat::Core, id,
                                      "faultStall", c.now(),
                                      "cycles", stall);
                    if (stall == 0)
                        c.blockUntil([] { return false; });
                    c.sleepCycles(stall);
                }
                grp.job.lane(c, lane);
                mbc.send(c, mbc.a9Box(), ackMsg(did, g, lane));
            }
        });
    }

    soc.a9().start([this](soc::HostA9 &host) { hostMain(host); });
}

bool
OffloadScheduler::submitNow(JobRequest req)
{
    const sim::Tick now = soc.now();
    ++submitted;

    JobRecord rec;
    rec.id = nextJobId++;
    rec.app = req.makeJob ? "<custom>" : req.app;
    rec.enqueuedAt = now;

    if (queue.size() >= p.queueDepth) {
        rec.state = JobState::Rejected;
        rec.finishedAt = now;
        ++rejected;
        DPU_TRACE_INSTANT(sim::TraceCat::Soc, hostTid, "job.reject",
                          now, "job", rec.id);
        records.push_back(std::move(rec));
        return false;
    }

    ++accepted;
    Pending pend;
    pend.id = rec.id;
    pend.req = std::move(req);
    pend.deadline =
        now + (pend.req.timeout ? pend.req.timeout : defaultTimeout);
    pend.queueSpan = DPU_TRACE_NEXT_ID();
    DPU_TRACE_SPAN_BEGIN(sim::TraceCat::Soc, hostTid, "job.queued",
                         pend.queueSpan, now, "job", rec.id, nullptr,
                         0);
    records.push_back(std::move(rec));
    queue.push_back(std::move(pend));
    return true;
}

apps::ServingJob
OffloadScheduler::buildJob(const JobRequest &req, unsigned group)
{
    apps::ServingContext ctx;
    ctx.soc = &soc;
    ctx.baseCore = groups[group].base;
    ctx.nLanes = groups[group].size;
    ctx.arena = arenaOf(group);
    ctx.arenaBytes = arenaBytesPerGroup;
    ctx.seed = req.seed;
    if (req.makeJob)
        return req.makeJob(ctx);
    const apps::AppSpec *spec = apps::findApp(req.app);
    sim_assert(spec, "request names unknown app \"%s\"",
               req.app.c_str());
    apps::ConfigHandle cfg = req.cfg ? req.cfg : spec->makeConfig();
    return spec->serve(cfg, ctx);
}

void
OffloadScheduler::resolveJob(JobRecord &rec)
{
    if (completeHook)
        completeHook(rec);
}

void
OffloadScheduler::admitArrivals(soc::HostA9 &host)
{
    while (!arrivals.empty() && arrivals.front().when <= host.now()) {
        (void)submitNow(std::move(arrivals.front().req));
        arrivals.pop_front();
    }
}

void
OffloadScheduler::reapTimeouts(soc::HostA9 &host)
{
    const sim::Tick now = host.now();

    // Queued jobs whose deadline passed never get dispatched.
    for (auto it = queue.begin(); it != queue.end();) {
        if (it->deadline > now) {
            ++it;
            continue;
        }
        JobRecord &rec = records[it->id - 1];
        rec.state = JobState::TimedOut;
        rec.finishedAt = now;
        rec.cause = "queue";
        ++timedOut;
        DPU_TRACE_SPAN_END(sim::TraceCat::Soc, hostTid, "job.queued",
                           it->queueSpan, now);
        DPU_TRACE_INSTANT(sim::TraceCat::Soc, hostTid, "job.timeout",
                          now, "job", rec.id);
        it = queue.erase(it);
        resolveJob(rec);
    }

    // In-flight jobs past their deadline: quarantine the group
    // (late acks reclaim it), then either requeue the job onto a
    // healthy group or report it timed out, attributed to a hung
    // DMAC when one of the group's cores shows a wedge.
    for (unsigned g = 0; g < groups.size(); ++g) {
        Group &grp = groups[g];
        if (grp.state != GroupState::Busy || grp.deadline > now)
            continue;
        JobRecord &rec = records[grp.jobId - 1];

        bool wedged = false;
        for (unsigned lane = 0; lane < grp.size && !wedged; ++lane)
            wedged = soc.dmsFor(grp.base + lane).dmac().hung();

        grp.state = GroupState::Quarantined;
        grp.quarantinedAt = now;
        ++quarantines;
        DPU_TRACE_SPAN_END(sim::TraceCat::Soc, groupTid + g,
                           "job.run", grp.runSpan, now);
        DPU_TRACE_INSTANT(sim::TraceCat::Soc, groupTid + g,
                          "job.timeout", now, "job", rec.id);

        if (rec.attempts < p.maxAttempts) {
            // Retry on another group with a fresh deadline. The
            // requeue bypasses the admission bound: the job was
            // already admitted once.
            ++requeued;
            rec.state = JobState::Queued;
            Pending pend;
            pend.id = rec.id;
            pend.req = std::move(grp.req);
            pend.deadline = now + (pend.req.timeout
                                       ? pend.req.timeout
                                       : defaultTimeout);
            pend.queueSpan = DPU_TRACE_NEXT_ID();
            DPU_TRACE_SPAN_BEGIN(sim::TraceCat::Soc, hostTid,
                                 "job.queued", pend.queueSpan, now,
                                 "job", rec.id, nullptr, 0);
            DPU_TRACE_INSTANT(sim::TraceCat::Soc, hostTid,
                              "job.requeue", now, "job", rec.id);
            queue.push_back(std::move(pend));
            continue;
        }

        rec.state = JobState::TimedOut;
        rec.finishedAt = now;
        rec.cause = wedged ? "dmsWedge" : "deadline";
        ++timedOut;
        if (wedged)
            ++wedgeTimeouts;
        // The verdict is final, so the request is not needed again;
        // the job stays until its lanes ack (a wedged one never does).
        grp.req = {};
        resolveJob(rec);
    }
}

void
OffloadScheduler::dispatchReady(soc::HostA9 &host)
{
    for (;;) {
        if (queue.empty())
            return;
        unsigned g = 0;
        for (; g < groups.size(); ++g)
            if (groups[g].state == GroupState::Free)
                break;
        if (g == groups.size())
            return;

        Pending pend = std::move(queue.front());
        queue.pop_front();
        Group &grp = groups[g];
        JobRecord &rec = records[pend.id - 1];

        // Driver work: build the job, stage its inputs in the
        // group's arena, write the descriptors.
        apps::ServingJob job = buildJob(pend.req, g);
        host.busyUs(dispatchOverheadUs);
        job.stage();

        const sim::Tick now = host.now();
        rec.state = JobState::Running;
        rec.dispatchedAt = now;
        ++rec.attempts;
        ++dispatched;
        DPU_TRACE_SPAN_END(sim::TraceCat::Soc, hostTid, "job.queued",
                           pend.queueSpan, now);

        grp.state = GroupState::Busy;
        grp.jobId = pend.id;
        grp.dispatchId = nextDispatchId++;
        grp.deadline = pend.deadline;
        grp.acksOutstanding = grp.size;
        grp.job = std::move(job);
        grp.req = std::move(pend.req);
        grp.runSpan = DPU_TRACE_NEXT_ID();
        DPU_TRACE_SPAN_BEGIN(sim::TraceCat::Soc, groupTid + g,
                             "job.run", grp.runSpan, now, "job",
                             pend.id, "group", g);
        for (unsigned lane = 0; lane < grp.size; ++lane)
            host.sendToCore(grp.base + lane,
                            dispatchMsg(grp.dispatchId, g));
    }
}

void
OffloadScheduler::handleAck(soc::HostA9 &host, std::uint64_t msg)
{
    const unsigned lane = unsigned(msg & 0xff);
    const unsigned g = unsigned((msg >> 8) & 0xff);
    const std::uint64_t did = msg >> 16;
    if (g >= groups.size() || lane >= groups[g].size) {
        ++strayAcks;
        return;
    }
    Group &grp = groups[g];
    if (grp.acksOutstanding == 0 || grp.dispatchId != did) {
        ++strayAcks;
        return;
    }
    if (--grp.acksOutstanding > 0)
        return;

    // Last lane acked: the dispatch is over.
    host.busyUs(completeOverheadUs);
    const sim::Tick now = host.now();
    JobRecord &rec = records[grp.jobId - 1];
    if (grp.state == GroupState::Quarantined) {
        // A reaped dispatch finished late: reclaim the group, keep
        // the job's verdict (timed out, or requeued and by now
        // resolved on another group — the requester has long been
        // answered either way).
        ++lateJobs;
        quarantineDownTicks += now - grp.quarantinedAt;
        grp.state = GroupState::Free;
        grp.job = {};
        grp.req = {};
        DPU_TRACE_INSTANT(sim::TraceCat::Soc, groupTid + g,
                          "job.lateAck", now, "job", grp.jobId);
        return;
    }

    rec.state = JobState::Completed;
    rec.finishedAt = now;
    rec.valid = !grp.job.validate || grp.job.validate();
    ++completed;
    if (!rec.valid)
        ++validationFailed;
    DPU_TRACE_SPAN_END(sim::TraceCat::Soc, groupTid + g, "job.run",
                       grp.runSpan, now);
    grp.state = GroupState::Free;
    grp.job = {};
    grp.req = {};
    resolveJob(rec);
}

sim::Tick
OffloadScheduler::nextWake() const
{
    sim::Tick wake = sim::maxTick;
    if (!arrivals.empty())
        wake = std::min(wake, arrivals.front().when);
    for (const Pending &pend : queue)
        wake = std::min(wake, pend.deadline);
    for (const Group &grp : groups)
        if (grp.state == GroupState::Busy)
            wake = std::min(wake, grp.deadline);
    return wake;
}

void
OffloadScheduler::hostMain(soc::HostA9 &host)
{
    for (;;) {
        admitArrivals(host);
        reapTimeouts(host);
        dispatchReady(host);

        bool busy = false;
        for (const Group &grp : groups)
            busy = busy || grp.state == GroupState::Busy;
        if (!busy && queue.empty() && arrivals.empty() && !open)
            break;

        // A timeout is not idle spin: the next iteration admits the
        // due arrival or reaps the overdue job that set the wake
        // tick (a held-open append or close() may pull it in).
        std::uint64_t msg;
        if (host.recvUntil(nextWake(), msg))
            handleAck(host, msg);
    }

    // Retire the workers. Wedged lanes never read their sentinel;
    // their fibers stay parked without keeping the queue alive.
    for (unsigned id = 0; id < p.nCores; ++id)
        host.sendToCore(id, shutdownMsg);
    finalize(host);
}

void
OffloadScheduler::finalize(soc::HostA9 &host)
{
    // Every summary cell exists after a run, at 0 if its event
    // never happened.
    const auto cell = [](sim::Counter &c) {
        c.add(0);
        return c.value();
    };
    ServingSummary s;
    s.submitted = cell(submitted);
    s.accepted = cell(accepted);
    s.rejected = cell(rejected);
    s.dispatched = cell(dispatched);
    s.completed = cell(completed);
    s.timedOut = cell(timedOut);
    s.validationFailed = cell(validationFailed);
    s.lateJobs = cell(lateJobs);
    s.requeued = cell(requeued);
    s.quarantines = cell(quarantines);
    s.wedgeTimeouts = cell(wedgeTimeouts);
    for (const Group &grp : groups)
        s.wedgedGroups += grp.state == GroupState::Quarantined;
    wedgedGroups += s.wedgedGroups;

    // Percentiles, mean, max and throughput over this shard's job
    // records: the fold the board and rack summaries use.
    SummaryFold fold;
    fold.add(s, records);
    s = fold.finish();

    // Availability: fraction of group-ticks not spent quarantined.
    // Closed quarantines accumulated downtime at reclaim; groups
    // still quarantined now have been down since their reap.
    sim::Tick down = quarantineDownTicks;
    for (const Group &grp : groups)
        if (grp.state == GroupState::Quarantined)
            down += host.now() - grp.quarantinedAt;
    if (host.now() > 0 && !groups.empty())
        s.availability =
            1.0 - double(down) /
                      (double(host.now()) * double(groups.size()));
    stats.scalar("availability") = s.availability;

    stats.scalar("p50LatencyUs") = s.p50Us;
    stats.scalar("p95LatencyUs") = s.p95Us;
    stats.scalar("p99LatencyUs") = s.p99Us;
    stats.scalar("meanLatencyUs") = s.meanUs;
    stats.scalar("maxLatencyUs") = s.maxUs;
    stats.scalar("throughputJobsPerSec") = s.throughputJobsPerSec;
    finalSummary = s;
}

} // namespace dpu::host
