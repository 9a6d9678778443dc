/**
 * @file
 * Seeded chaos harness: drive the offload scheduler through many
 * randomized-but-deterministic fault schedules and hold the
 * robustness contract on every one:
 *
 *  - the simulation never hangs (bounded run, host driver exits);
 *  - every request resolves: completed, timed out, or rejected —
 *    nothing left queued or running;
 *  - every timed-out request carries a failure attribution;
 *  - the same seed replays to bit-identical statistics.
 *
 * The fault schedules come from FaultPlane::randomSpec(seed), so a
 * failing seed reproduces from its number alone. The workload mixes
 * plain compute lanes, DMS streaming lanes that use the bounded
 * wfeFor() recovery path, and ATE lanes behind ReliableAte retries.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "board/board.hh"
#include "host/board_offload.hh"
#include "host/offload.hh"
#include "rt/dms_ctl.hh"
#include "rt/sync.hh"
#include "sim/fault.hh"
#include "sim/rng.hh"
#include "sim/stats_registry.hh"
#include "soc/host_a9.hh"
#include "soc/soc.hh"
#include "topo/topology.hh"

using namespace dpu;
using namespace dpu::host;

namespace {

constexpr unsigned chaosSeeds = 24;
constexpr unsigned chaosJobs = 18;
/** Per-job deadline in the chaos walls: tight, so wedges reap. */
constexpr sim::Tick chaosDeadline = sim::Tick(2e9); // 2 ms

/** A request of one of three lane flavours. */
JobRequest
chaosJob(unsigned kind, std::uint64_t seed)
{
    JobRequest req;
    req.seed = seed;
    req.makeJob = [kind](const apps::ServingContext &ctx) {
        apps::ServingJob job;
        job.stage = [] {};
        switch (kind % 3) {
        case 0: // plain compute
            job.lane = [](core::DpCore &c, unsigned) { c.alu(512); };
            break;
        case 1: // DMS streaming with the bounded-wait recovery path
            job.lane = [ctx](core::DpCore &c, unsigned lane) {
                rt::DmsCtl ctl(c, ctx.soc->dmsFor(c.id()));
                for (int i = 0; i < 2; ++i) {
                    ctl.ddrToDmem()
                        .rows(256)
                        .width(4)
                        .from(ctx.arena + lane * 4096)
                        .to(0)
                        .event(0)
                        .push(0);
                    auto res = ctl.wfeFor(0, sim::Tick(1e9));
                    if (res != dms::Dms::WfeResult::Ok)
                        break; // error or wedge: fail clean, ack
                    ctl.clearEvent(0);
                }
            };
            break;
        default: // remote atomics behind bounded retries
            job.lane = [ctx](core::DpCore &c, unsigned lane) {
                rt::AteRetryPolicy pol;
                pol.timeout = sim::Tick(1e9);
                pol.maxRetries = 3;
                rt::ReliableAte ra(ctx.soc->ate(), pol);
                const unsigned peer =
                    ctx.baseCore + ((lane + 1) % ctx.nLanes);
                for (int i = 0; i < 4; ++i)
                    (void)ra.fetchAdd(c, peer,
                                      mem::dmemAddr(peer, 256), 1);
            };
            break;
        }
        return job;
    };
    return req;
}

struct ChaosOutcome
{
    sim::StatsSnapshot snap;
    ServingSummary sum;
    bool hostFinished = false;
    std::vector<JobState> states;
    std::vector<std::string> causes;
    /** Jobs each shard took, board runs only. */
    std::vector<std::size_t> perShard;
};

/** One full chaos run under randomSpec(seed). */
ChaosOutcome
runChaos(std::uint64_t seed)
{
    sim::faultPlane().reset();
    sim::faultPlane().configure(sim::FaultPlane::randomSpec(seed),
                                seed);

    ChaosOutcome out;
    {
        soc::Soc s;
        OffloadParams p;
        p.nCores = 16;
        p.groupSize = 4;
        p.maxAttempts = 2;
        OffloadScheduler sched(s, p);

        sim::Rng rng(seed ^ 0xc0ffee);
        sim::Tick t = 0;
        for (unsigned i = 0; i < chaosJobs; ++i) {
            t += 50'000'000 + rng.below(200'000'000);
            JobRequest req =
                chaosJob(unsigned(rng.below(3)), seed + i);
            req.timeout = chaosDeadline;
            sched.enqueueAt(t, std::move(req));
        }

        sched.start();
        s.runFor(sim::Tick(1e12)); // 1 s cap: a hang fails loudly

        out.hostFinished = s.a9().finished();
        out.sum = sched.summary();
        for (const JobRecord &rec : sched.jobs()) {
            out.states.push_back(rec.state);
            out.causes.push_back(rec.cause);
        }
        out.snap = sim::StatsRegistry::instance().snapshot();
        out.snap.counters["sim.finalTick"] = s.now();
    }
    sim::faultPlane().reset();
    return out;
}

} // namespace

TEST(Chaos, EverySeedResolvesCleanlyAndReplaysBitIdentically)
{
    for (std::uint64_t seed = 1; seed <= chaosSeeds; ++seed) {
        const std::string spec = sim::FaultPlane::randomSpec(seed);
        SCOPED_TRACE("seed " + std::to_string(seed) + " spec " +
                     spec);

        const ChaosOutcome a = runChaos(seed);

        // No hang: the driver loop exited under the fault schedule.
        ASSERT_TRUE(a.hostFinished);

        // Full accounting: every request resolved one way exactly.
        EXPECT_EQ(a.sum.completed + a.sum.timedOut + a.sum.rejected,
                  a.sum.submitted);
        EXPECT_EQ(a.sum.submitted, std::uint64_t(chaosJobs));
        for (std::size_t i = 0; i < a.states.size(); ++i) {
            EXPECT_NE(a.states[i], JobState::Queued) << "job " << i;
            EXPECT_NE(a.states[i], JobState::Running) << "job " << i;
            if (a.states[i] == JobState::TimedOut) {
                EXPECT_FALSE(a.causes[i].empty())
                    << "job " << i << " timed out unattributed";
            }
        }
        EXPECT_GE(a.sum.availability, 0.0);
        EXPECT_LE(a.sum.availability, 1.0);

        // Determinism: the same seed replays to the same stats.
        const ChaosOutcome b = runChaos(seed);
        EXPECT_EQ(a.snap, b.snap)
            << sim::formatDiffs(sim::diffSnapshots(a.snap, b.snap));
        EXPECT_EQ(a.states, b.states);
    }
}

TEST(Chaos, CleanRunUnderChaosHarnessShape)
{
    // The same workload with the plane inert: everything completes.
    sim::faultPlane().reset();
    soc::Soc s;
    OffloadParams p;
    p.nCores = 16;
    p.groupSize = 4;
    OffloadScheduler sched(s, p);

    sim::Rng rng(99);
    sim::Tick t = 0;
    for (unsigned i = 0; i < chaosJobs; ++i) {
        t += 50'000'000 + rng.below(200'000'000);
        sched.enqueueAt(t, chaosJob(i, 1000 + i));
    }
    sched.start();
    s.runFor(sim::Tick(1e12));

    EXPECT_TRUE(s.a9().finished());
    EXPECT_EQ(sched.summary().completed,
              std::uint64_t(chaosJobs));
    EXPECT_EQ(sched.summary().timedOut, 0u);
    EXPECT_TRUE(s.allFinished());
}

// ----------------------------------------------------------------
// Parallel-mode slice: chaos schedules on a multi-DPU board
// ----------------------------------------------------------------

namespace {

/** One chaos schedule on a 2-DPU board at a given thread count. */
ChaosOutcome
runBoardChaos(std::uint64_t seed, unsigned threads)
{
    sim::faultPlane().reset();
    sim::faultPlane().configure(sim::FaultPlane::randomSpec(seed),
                                seed);

    ChaosOutcome out;
    {
        const auto brd =
            topo::ClusterTopology::board(2).threads(threads).buildBoard();
        board::Board &b = *brd;
        OffloadParams p;
        p.nCores = 16;
        p.groupSize = 4;
        p.maxAttempts = 2;
        BoardScheduler sched(b, p, makeHashRouter());

        sim::Rng rng(seed ^ 0xc0ffee);
        sim::Tick t = 0;
        for (unsigned i = 0; i < chaosJobs; ++i) {
            t += 50'000'000 + rng.below(200'000'000);
            JobRequest req =
                chaosJob(unsigned(rng.below(3)), seed + i);
            req.timeout = chaosDeadline;
            sched.enqueueAt(t, std::move(req));
        }

        sched.start();
        b.runFor(sim::Tick(1e12));

        out.hostFinished = true;
        for (unsigned d = 0; d < b.nDpus(); ++d)
            out.hostFinished &= b.dpu(d).a9().finished();
        out.sum = sched.summary();
        for (unsigned d = 0; d < sched.nShards(); ++d) {
            out.perShard.push_back(sched.shard(d).jobs().size());
            for (const JobRecord &rec : sched.shard(d).jobs()) {
                out.states.push_back(rec.state);
                out.causes.push_back(rec.cause);
            }
        }
        out.snap = sim::StatsRegistry::instance().snapshot();
        out.snap.counters["sim.finalTick"] = b.now();
    }
    sim::faultPlane().reset();
    return out;
}

} // namespace

TEST(Chaos, BoardSchedulesReplayIdenticallyAcrossThreadCounts)
{
    // A slice of the seed space (the full sweep lives in the
    // single-chip wall above): each schedule must resolve cleanly
    // on a 2-DPU board and replay bit-identically with the epoch
    // runner on one and on two worker threads.
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        const std::string spec = sim::FaultPlane::randomSpec(seed);
        SCOPED_TRACE("seed " + std::to_string(seed) + " spec " +
                     spec);

        const ChaosOutcome serial = runBoardChaos(seed, 1);
        ASSERT_TRUE(serial.hostFinished);
        EXPECT_EQ(serial.sum.completed + serial.sum.timedOut +
                      serial.sum.rejected,
                  serial.sum.submitted);
        EXPECT_EQ(serial.sum.submitted, std::uint64_t(chaosJobs));
        // Hash routing must still feed both chips, so the schedule's
        // faults land on each of them.
        ASSERT_EQ(serial.perShard.size(), 2u);
        EXPECT_GT(serial.perShard[0], 0u);
        EXPECT_GT(serial.perShard[1], 0u);
        for (std::size_t i = 0; i < serial.states.size(); ++i) {
            EXPECT_NE(serial.states[i], JobState::Queued)
                << "job " << i;
            EXPECT_NE(serial.states[i], JobState::Running)
                << "job " << i;
        }

        const ChaosOutcome par = runBoardChaos(seed, 2);
        EXPECT_EQ(serial.snap, par.snap)
            << "threads=2 diverged:\n"
            << sim::formatDiffs(
                   sim::diffSnapshots(serial.snap, par.snap));
        EXPECT_EQ(serial.states, par.states);
        EXPECT_EQ(serial.causes, par.causes);
    }
}
