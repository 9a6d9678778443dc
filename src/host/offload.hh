/**
 * @file
 * The host offload scheduler (Section 2.4's deployment model).
 *
 * On the chip the A9 complex runs the offload driver that "feeds
 * work to the dpCores" over the MailBox Controller: requests arrive
 * from the network, the driver stages their inputs in DRAM, posts a
 * pointer-sized message to each core of an idle core-group, and
 * collects per-core completion acks. This runtime reproduces that
 * loop on the simulator:
 *
 *  - the 32 dpCores are partitioned into fixed core-groups, each
 *    running a persistent worker loop (mbc recv -> kernel -> ack);
 *  - requests name a registered app (apps::registry()) plus a
 *    per-request config, and arrive open-loop (pre-scheduled
 *    arrival times) or closed-loop (submitted from the completion
 *    hook);
 *  - admission control bounds the host-side queue: a full queue
 *    rejects (backpressure to the network layer);
 *  - every job carries a deadline; a job that does not complete in
 *    time is reaped — counted as a timeout, reported, its group
 *    quarantined until (and unless) the late acks arrive — so a
 *    wedged kernel costs its group, never the simulation;
 *  - per-request latency percentiles and throughput, folded by
 *    host::SummaryFold (host/summary.hh) like the board and rack
 *    summaries, land in the "sched" StatGroup, and each job emits
 *    enqueue/dispatch/run lifecycle spans through the tracer
 *    (TraceCat::Soc).
 */

#ifndef DPU_HOST_OFFLOAD_HH
#define DPU_HOST_OFFLOAD_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "apps/registry.hh"
#include "sim/stats.hh"
#include "soc/soc.hh"

namespace dpu::host {

/** Deadline for requests that don't carry one (from enqueue). */
constexpr sim::Tick defaultTimeout = sim::Tick(50e9); // 50 ms
/** A9 time per dispatch (staging, descriptor writes). */
constexpr double dispatchOverheadUs = 2.0;
/** A9 time per completion (validation readback). */
constexpr double completeOverheadUs = 1.0;
/** DDR base of the per-group job arenas. */
constexpr mem::Addr arenaBase = 1 << 20;
/** Arena bytes per group (inputs + outputs + DMS prefetch slack). */
constexpr std::uint64_t arenaBytesPerGroup = 6 << 20;

/** Scheduler configuration. */
struct OffloadParams
{
    /** dpCores to manage (first nCores of the chip). */
    unsigned nCores = 32;
    /** Cores per group; must divide nCores. */
    unsigned groupSize = 4;
    /** Admission queue bound (backpressure beyond this). */
    std::size_t queueDepth = 64;
    /**
     * Dispatch attempts per job: a running job reaped at its
     * deadline is requeued (fresh deadline, healthy group) while
     * attempts remain, then finally reported TimedOut. 1 fails
     * fast: a job reaped at its deadline is TimedOut at once.
     */
    unsigned maxAttempts = 1;
    /**
     * Name of the scheduler's StatGroup. Multi-DPU boards run one
     * scheduler per chip; distinct names ("sched.dpu0", ...) keep
     * board-wide stat snapshots self-describing instead of relying
     * on the registry's #N disambiguation.
     */
    std::string statName = "sched";
};

/** One serving request. */
struct JobRequest
{
    /** Registered app name (see apps::registry()). */
    std::string app;
    /** Per-request config; nullptr uses the app's defaults. */
    apps::ConfigHandle cfg;
    /** Deadline relative to enqueue; 0 uses defaultTimeout. */
    sim::Tick timeout = 0;
    /** Per-request seed (dataset variation across requests). */
    std::uint64_t seed = 0;
    /** Test hook: bypass the registry and serve this job instead
     *  (fault injection uses it to plant wedged kernels). */
    std::function<apps::ServingJob(const apps::ServingContext &)>
        makeJob;
};

enum class JobState : std::uint8_t
{
    Queued,
    Running,
    Completed,
    TimedOut,
    Rejected,
};

/** Final per-job record. The fields run from widest to narrowest,
 *  so padding only trails the record (80 bytes with libstdc++). */
struct JobRecord
{
    std::uint64_t id = 0;
    std::string app;
    sim::Tick enqueuedAt = 0;
    sim::Tick dispatchedAt = 0;
    sim::Tick finishedAt = 0;
    /** Failure attribution for TimedOut jobs: "queue" (never
     *  dispatched), "deadline", or "dmsWedge" (a group core's DMAC
     *  is hung — the erratum or an injected wedge). */
    const char *cause = "";
    /** Dispatches performed (>1 means the job was requeued). */
    unsigned attempts = 0;
    JobState state = JobState::Queued;
    bool valid = false; ///< validator verdict (Completed only)

    double
    latencyUs() const
    {
        return double(finishedAt - enqueuedAt) * 1e-6;
    }
};

/** Aggregate outcome of a serving run. */
struct ServingSummary
{
    std::uint64_t submitted = 0;
    std::uint64_t accepted = 0;
    std::uint64_t rejected = 0;
    std::uint64_t dispatched = 0;
    std::uint64_t completed = 0;
    std::uint64_t timedOut = 0;
    std::uint64_t validationFailed = 0;
    std::uint64_t lateJobs = 0;     ///< timed out, then acked late
    std::uint64_t wedgedGroups = 0; ///< still quarantined at exit
    std::uint64_t requeued = 0;     ///< reaped jobs given a retry
    std::uint64_t quarantines = 0;  ///< group quarantine entries
    std::uint64_t wedgeTimeouts = 0; ///< timeouts attributed to a
                                     ///< hung DMAC
    /** Mean fraction of group capacity not quarantined over the
     *  run (1.0 = no quarantine downtime). */
    double availability = 1.0;
    double p50Us = 0, p95Us = 0, p99Us = 0, meanUs = 0, maxUs = 0;
    double throughputJobsPerSec = 0;
};

/** The A9-side offload scheduler runtime. */
class OffloadScheduler
{
  public:
    /** Serve on @p soc's dpCores from its A9 (Soc::a9()). */
    OffloadScheduler(soc::Soc &soc, OffloadParams p);

    // ------------------------------------------------------------
    // Load description (before start())
    // ------------------------------------------------------------

    /** Open-loop arrival: @p req reaches the host at tick @p when.
     *  Normally arrivals precede start(); a held-open scheduler
     *  (holdOpen()) accepts time-ordered appends between run
     *  segments too, and its blocked A9 wakes at the arrival. The
     *  scheduler holds the request until it is admitted, then
     *  until it resolves; only its JobRecord outlives that. */
    void enqueueAt(sim::Tick when, JobRequest req);

    /**
     * Hold the driver loop open: it no longer exits when idle with
     * no future arrivals, so a stepped driver (the board balancer's
     * windowed run loop) can keep feeding arrivals between run
     * segments. Pair with close() before the final drain.
     */
    void holdOpen() { open = true; }

    /** Let the driver loop exit once drained (ends holdOpen()); a
     *  blocked A9 wakes now to see it. */
    void
    close()
    {
        open = false;
        soc.a9().wakeBy(soc.now());
    }

    /**
     * Completion hook, fired after every job resolution (completed
     * or timed out) in host context; closed-loop generators call
     * submitNow() from it.
     */
    void
    onComplete(std::function<void(const JobRecord &)> fn)
    {
        completeHook = std::move(fn);
    }

    /** Start workers + the host driver loop; then run the Soc. */
    void start();

    // ------------------------------------------------------------
    // Host-context API (valid inside hooks)
    // ------------------------------------------------------------

    /** Admit @p req now. @return false when the queue is full. */
    bool submitNow(JobRequest req);

    // ------------------------------------------------------------
    // Results (after the Soc has run)
    // ------------------------------------------------------------

    /** Every submitted job's record, in id order. */
    const std::deque<JobRecord> &jobs() const { return records; }
    ServingSummary summary() const { return finalSummary; }
    unsigned nGroups() const { return unsigned(groups.size()); }

  private:
    struct Arrival
    {
        sim::Tick when;
        JobRequest req;
    };

    struct Pending
    {
        std::uint64_t id;
        JobRequest req;
        sim::Tick deadline;
        std::uint64_t queueSpan;
    };

    enum class GroupState : std::uint8_t
    {
        Free,
        Busy,
        Quarantined,
    };

    struct Group
    {
        unsigned base = 0;
        unsigned size = 0;
        GroupState state = GroupState::Free;
        std::uint64_t jobId = 0;
        /** Monotonic per-dispatch id carried by the MBC messages;
         *  distinguishes a late ack from a previous dispatch of the
         *  same (requeued) job. */
        std::uint64_t dispatchId = 0;
        sim::Tick deadline = 0; ///< running job's reap tick
        unsigned acksOutstanding = 0;
        apps::ServingJob job;
        /** Retained so a reaped job can be requeued. */
        JobRequest req;
        std::uint64_t runSpan = 0;
        sim::Tick quarantinedAt = 0;
    };

    void hostMain(soc::HostA9 &host);
    void admitArrivals(soc::HostA9 &host);
    void reapTimeouts(soc::HostA9 &host);
    void dispatchReady(soc::HostA9 &host);
    void handleAck(soc::HostA9 &host, std::uint64_t msg);
    void resolveJob(JobRecord &rec);
    sim::Tick nextWake() const;
    void finalize(soc::HostA9 &host);
    mem::Addr arenaOf(unsigned group) const;
    apps::ServingJob buildJob(const JobRequest &req, unsigned group);

    soc::Soc &soc;
    OffloadParams p;
    sim::StatGroup stats;
    /** Job and recovery counts (sim/stats.hh), each added where its
     *  event happens; finalize() creates the summary's cells. */
    sim::Counter submitted{stats, "submitted"};
    sim::Counter accepted{stats, "accepted"};
    sim::Counter rejected{stats, "rejected"};
    sim::Counter dispatched{stats, "dispatched"};
    sim::Counter completed{stats, "completed"};
    sim::Counter timedOut{stats, "timedOut"};
    sim::Counter validationFailed{stats, "validationFailed"};
    sim::Counter lateJobs{stats, "lateJobs"};
    sim::Counter requeued{stats, "requeued"};
    sim::Counter quarantines{stats, "quarantines"};
    sim::Counter wedgeTimeouts{stats, "wedgeTimeouts"};
    sim::Counter wedgedGroups{stats, "wedgedGroups"};
    sim::Counter strayAcks{stats, "strayAcks"};

    /** Not yet admitted; sorted at start(), popped as admitted. */
    std::deque<Arrival> arrivals;
    /** The latest arrival tick appended: held-open appends must
     *  not precede it, even once the queue has drained. */
    sim::Tick lastArrival = 0;
    std::deque<Pending> queue;
    std::vector<Group> groups;
    /** Indexed by job id - 1. Node storage: a record never moves,
     *  and its blocks reuse what consumed requests freed. */
    std::deque<JobRecord> records;
    std::function<void(const JobRecord &)> completeHook;
    ServingSummary finalSummary;
    std::uint64_t nextJobId = 1;
    std::uint64_t nextDispatchId = 1;
    /** Ticks of group downtime from reclaimed quarantines;
     *  still-open quarantines are added at finalize(). */
    sim::Tick quarantineDownTicks = 0;
    bool started = false;
    /** holdOpen() latch: keep the driver loop alive while idle. */
    bool open = false;
};

} // namespace dpu::host

#endif // DPU_HOST_OFFLOAD_HH
