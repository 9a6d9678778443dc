/**
 * @file
 * The board-tier balance test wall.
 *
 * Three layers, mirroring the module's split:
 *
 *  - planner laws: LoadTracker windowing and one table over
 *    board::planMigrations, the planner both the rack and the board
 *    tier run under one BalancePolicy — strict improvement, freeze
 *    and min-load guards, the per-window budget, lowest-index ties,
 *    and the no-double-move invariant — plus the bad-knob table
 *    through both tiers' topology validation;
 *
 *  - drain-then-switch probes: a live skewed run must commit real
 *    migrations (forwarding-epoch deltas observed, at most one
 *    partition-map flip per commit, one hand-off per engine role
 *    per window), land byte-identical partition images
 *    wherever a partition ends up homed, and keep the link fabric's
 *    wire law (every send counted offered on entry lands in exactly
 *    one of workload / migration / probe / dropped);
 *
 *  - failure + determinism walls: retransmit-exhausted migrations
 *    abort cleanly with every partition intact at its old home; a
 *    wedged DMAC mid-migration times out and poisons the engine
 *    roles without wedging the run; and ten runs across --threads
 *    {1, 2, 4} with live migrations under a seeded fault schedule
 *    are bit-identical in stats, traces, homes and memory images.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "board/balance.hh"
#include "board/board.hh"
#include "host/board_offload.hh"
#include "sim/channel.hh"
#include "sim/fault.hh"
#include "sim/stats.hh"
#include "sim/stats_registry.hh"
#include "sim/trace.hh"
#include "topo/topology.hh"

using namespace dpu;
using board::BalancePolicy;
using board::MigrationStep;

namespace {

struct PlaneGuard
{
    PlaneGuard() { sim::faultPlane().reset(); }
    ~PlaneGuard() { sim::faultPlane().reset(); }
};

// ----------------------------------------------------------------
// The shared balanced-board scenario
// ----------------------------------------------------------------

constexpr sim::Tick kWindow = 500'000'000;   // 0.5 ms
constexpr unsigned kDpus = 4;
constexpr unsigned kParts = 8;

/** A trivial local job: lanes charge a few ALU ops and ack. No DMS
 *  and no cross-DPU traffic, so the link fabric carries ONLY the
 *  balancer's migration chunks and deltas. */
host::JobRequest
quickJob()
{
    host::JobRequest req;
    req.makeJob = [](const apps::ServingContext &) {
        apps::ServingJob job;
        job.stage = [] {};
        job.lane = [](core::DpCore &c, unsigned) { c.alu(16); };
        return job;
    };
    return req;
}

/** A 4-DPU board with the balancer live. */
std::unique_ptr<board::Board>
balancedBoard(unsigned threads)
{
    board::BalanceParams bal;
    bal.window = kWindow;
    bal.ewmaAlpha = 0.7;
    bal.hotFactor = 1.1;
    bal.maxMigrationsPerWindow = 2;
    bal.minPartitionLoad = 2.0;
    bal.keyPartitions = kParts;
    return topo::ClusterTopology::board(kDpus)
        .threads(threads)
        .boardBalance(bal)
        .buildBoard();
}

/** A balanced 4-DPU board with a skewed keyed offer stream: 90% of
 *  requests hammer the partitions initially homed on one DPU. */
struct Scenario
{
    std::unique_ptr<board::Board> brd;
    std::unique_ptr<host::BoardScheduler> sched;
    unsigned hotDpu = 0;
    std::vector<unsigned> hotParts;
    std::vector<unsigned> initialHome;

    explicit Scenario(unsigned threads)
    {
        brd = balancedBoard(threads);
        host::OffloadParams op;
        op.nCores = 8; // engine core 31 stays unmanaged
        op.groupSize = 4;
        sched = std::make_unique<host::BoardScheduler>(
            *brd, op, host::makeHashRouter());
        hotDpu = sched->partitions().homeOf(0, kDpus);
        for (unsigned p = 0; p < kParts; ++p) {
            initialHome.push_back(
                sched->partitions().homeOf(p, kDpus));
            if (initialHome.back() == hotDpu)
                hotParts.push_back(p);
        }
    }

    /** @p n offers, 4 us apart: 90% on the hot DPU's partitions. */
    void
    offerSkewed(unsigned n)
    {
        for (unsigned i = 0; i < n; ++i) {
            const std::uint64_t key =
                i % 10 < 9 ? hotParts[i % hotParts.size()]
                           : i % kParts;
            sched->offer(sim::Tick(i) * 4'000'000, key, quickJob());
        }
    }

    board::BoardBalancer &bal() { return *sched->balancer(); }

    /** Every partition's state range, read from its CURRENT home,
     *  concatenated in partition order. */
    std::vector<std::uint8_t>
    images() const
    {
        std::vector<std::uint8_t> out;
        for (unsigned p = 0; p < kParts; ++p) {
            const auto img = sched->balancer()->stateImage(p);
            out.insert(out.end(), img.begin(), img.end());
        }
        return out;
    }

    std::vector<unsigned>
    homes() const
    {
        std::vector<unsigned> h;
        for (unsigned p = 0; p < kParts; ++p)
            h.push_back(sched->balancer()->homeOf(p));
        return h;
    }
};

/** EXPECTs that every partition's image matches its seed pattern
 *  byte for byte, wherever the partition is homed now. */
void
expectImagesIntact(Scenario &s)
{
    for (unsigned part = 0; part < kParts; ++part) {
        const auto img = s.bal().stateImage(part);
        ASSERT_EQ(img.size(), board::stateBytesPerPartition);
        for (std::uint64_t i = 0; i < board::stateBytesPerPartition;
             ++i)
            ASSERT_EQ(img[i],
                      board::BoardBalancer::statePattern(part, i))
                << "partition " << part << " byte " << i
                << " corrupted (home "
                << s.bal().homeOf(part) << ")";
    }
}

/** EXPECTs the fabric's fate classes sum to what was offered on
 *  entry, in messages and in bytes. */
void
expectInvariants(Scenario &s)
{
    const sim::ChannelTotals t = s.brd->fabric().totals();
    std::uint64_t msgs = t.dropped.msgs, bytes = t.dropped.bytes;
    for (const sim::Tally &c : t.carried) {
        msgs += c.msgs;
        bytes += c.bytes;
    }
    EXPECT_EQ(t.offered.msgs, msgs)
        << "link fate classes must partition the offered messages";
    EXPECT_EQ(t.offered.bytes, bytes)
        << "link fate classes must partition the offered bytes";
    const auto &rep = s.bal().report();
    EXPECT_EQ(rep.committed + rep.aborted, rep.planned);
}

} // namespace

// ----------------------------------------------------------------
// LoadTracker
// ----------------------------------------------------------------

TEST(LoadTracker, WindowCountsFoldIntoAPrimedEwma)
{
    board::LoadTracker t(3);
    t.record(0);
    t.record(0);
    t.record(1);
    EXPECT_EQ(t.windowLoad(0), 2u);
    EXPECT_EQ(t.windowLoad(1), 1u);
    EXPECT_DOUBLE_EQ(t.load(0), 0.0); // nothing rolled yet

    // The first roll primes each EWMA with its raw window count,
    // whatever alpha says — otherwise every tier would boot with a
    // (1 - alpha) bias toward zero load.
    t.roll(0.5);
    EXPECT_DOUBLE_EQ(t.load(0), 2.0);
    EXPECT_DOUBLE_EQ(t.load(1), 1.0);
    EXPECT_DOUBLE_EQ(t.load(2), 0.0);
    EXPECT_EQ(t.windowLoad(0), 0u); // window reset

    for (int i = 0; i < 4; ++i)
        t.record(0);
    t.roll(0.5);
    EXPECT_DOUBLE_EQ(t.load(0), 0.5 * 4 + 0.5 * 2);
    EXPECT_DOUBLE_EQ(t.load(1), 0.5); // decays toward silence
    EXPECT_EQ(t.totalLoad(0), 6u);    // lifetime, not windowed
    EXPECT_EQ(t.rollsDone(), 2u);
}

// ----------------------------------------------------------------
// Planner laws (pure, no tier)
// ----------------------------------------------------------------

namespace {

BalancePolicy
policy(double hot, unsigned budget, double min_load)
{
    BalancePolicy p;
    p.window = 1;
    p.hotFactor = hot;
    p.maxMigrationsPerWindow = budget;
    p.minPartitionLoad = min_load;
    return p;
}

/** One planner input and the exact plan it must produce. */
struct PlanCase
{
    const char *name;
    std::vector<double> loads;
    std::vector<unsigned> home;
    unsigned nodes;
    BalancePolicy policy;
    std::vector<bool> frozen;
    /** Expected steps as {partition, from, to}, in plan order. */
    std::vector<std::array<unsigned, 3>> steps;
};

} // namespace

TEST(BalancePlanner, PlanLawsHoldAcrossTheCaseTable)
{
    const BalancePolicy dflt = policy(1.5, 1, 4.0);
    const std::vector<PlanCase> cases = {
        {"balanced load plans nothing",
         {10, 10, 10, 10}, {0, 1, 2, 3}, 4, dflt, {}, {}},
        {"heaviest eligible goes to the coldest, lowest index",
         {10, 30, 20, 1}, {0, 0, 0, 0}, 4, dflt, {}, {{1, 0, 1}}},
        {"the coldest node wins over a warmer one",
         {60, 40, 20, 5}, {0, 0, 0, 1}, 3, dflt, {}, {{0, 0, 2}}},
        {"budget left but the third move is not a strict gain",
         {10, 30, 20, 1}, {0, 0, 0, 0}, 4, policy(1.5, 3, 4.0), {},
         {{1, 0, 1}, {2, 0, 2}}},
        {"a single mega-partition never oscillates",
         {100}, {0}, 4, policy(1.5, 4, 4.0), {}, {}},
        {"moving the only heavy partition just relocates it",
         {50, 1}, {0, 1}, 2, policy(1.1, 1, 1.0), {}, {}},
        {"fewer than two nodes plans nothing",
         {50}, {0}, 1, dflt, {}, {}},
        {"a silent tier plans nothing",
         {0, 0}, {0, 1}, 2, dflt, {}, {}},
        {"frozen heavy and light partitions stay put",
         {30, 3}, {0, 0}, 2, dflt, {true, false}, {}},
        {"unfrozen, the heavy partition moves",
         {30, 3}, {0, 0}, 2, dflt, {false, false}, {{0, 0, 1}}},
        {"only the unfrozen heavy partition moves",
         {60, 3, 40}, {0, 0, 0}, 2, dflt, {true, false, false},
         {{2, 0, 1}}},
        {"the budget bounds the plan, no partition moves twice",
         {30, 28, 26, 24, 1, 1}, {0, 0, 0, 0, 1, 2}, 4,
         policy(1.0, 3, 1.0), {},
         {{0, 0, 3}, {1, 0, 1}, {2, 0, 2}}},
    };

    for (const PlanCase &c : cases) {
        SCOPED_TRACE(c.name);
        std::vector<unsigned> home = c.home;
        const std::vector<MigrationStep> plan = board::planMigrations(
            c.loads, home, c.nodes, c.policy, c.frozen);
        ASSERT_EQ(plan.size(), c.steps.size());
        EXPECT_LE(plan.size(), c.policy.maxMigrationsPerWindow);

        // The plan applies in place, one move per partition.
        std::vector<unsigned> want = c.home;
        std::vector<bool> moved(c.loads.size(), false);
        for (std::size_t i = 0; i < plan.size(); ++i) {
            const MigrationStep &s = plan[i];
            EXPECT_EQ(s.partition, c.steps[i][0]) << "step " << i;
            EXPECT_EQ(s.from, c.steps[i][1]) << "step " << i;
            EXPECT_EQ(s.to, c.steps[i][2]) << "step " << i;
            EXPECT_DOUBLE_EQ(s.load, c.loads[s.partition]);
            EXPECT_FALSE(moved[s.partition])
                << "partition " << s.partition << " planned twice";
            moved[s.partition] = true;
            want[s.partition] = s.to;
        }
        EXPECT_EQ(home, want);
    }
}

// ----------------------------------------------------------------
// Drain-then-switch: live migrations commit, bytes survive
// ----------------------------------------------------------------

TEST(BoardBalance, SkewedRunCommitsMigrationsOffTheHotDpu)
{
    PlaneGuard g;
    Scenario s(2);
    ASSERT_GE(s.hotParts.size(), 1u);
    s.offerSkewed(240);
    s.sched->run();

    const auto &rep = s.bal().report();
    EXPECT_GE(rep.planned, 1u);
    EXPECT_GE(rep.committed, 1u);
    EXPECT_EQ(rep.aborted, 0u) << "no faults, nothing may abort";

    // At least one of the hot DPU's partitions found a new home,
    // and each commit flipped the router (drain-then-switch: the
    // flip count is visible as reassigned partitions).
    unsigned moved = 0;
    for (unsigned p : s.hotParts)
        if (s.bal().homeOf(p) != s.hotDpu)
            ++moved;
    EXPECT_GE(moved, 1u);
    EXPECT_GE(s.sched->partitions().reassignedCount(), 1u);
    EXPECT_LE(s.sched->partitions().reassignedCount(),
              unsigned(rep.committed));

    // Forwarding epoch observed: requests kept arriving for the
    // partition while it was in flight, each shipping a delta.
    EXPECT_GE(rep.forwarded, 1u);
    EXPECT_GE(rep.deltaBytes, rep.forwarded * 256);

    // The migrated images are byte-identical to the seed pattern,
    // and the migration traffic rode its own accounting class.
    expectImagesIntact(s);
    expectInvariants(s);
    EXPECT_GE(s.brd->fabric().migrationBytes(), rep.stateBytes);
    EXPECT_GE(s.brd->fabric()
                  .totals()
                  .of(sim::Traffic::Migration)
                  .msgs,
              rep.committed * (board::stateBytesPerPartition /
                               dms::stagingBufBytes));

    // The workload itself was untouched by the re-sharding.
    const auto sum = s.sched->summary();
    EXPECT_EQ(sum.completed, 240u);
    EXPECT_EQ(sum.timedOut, 0u);

    // Each report field is its board.balance cell; a cell never
    // created reads 0.
    const sim::StatsSnapshot snap =
        sim::StatsRegistry::instance().snapshot();
    const auto cell = [&snap](const std::string &name) {
        const auto it = snap.counters.find("board.balance." + name);
        return it == snap.counters.end() ? 0 : it->second;
    };
    EXPECT_EQ(rep.planned, cell("planned"));
    EXPECT_EQ(rep.committed, cell("committed"));
    EXPECT_EQ(rep.aborted, cell("aborted"));
    EXPECT_EQ(rep.timeoutAborts, cell("timeoutAborts"));
    EXPECT_EQ(rep.chunkRetries, cell("chunkRetries"));
    EXPECT_EQ(rep.forwarded, cell("forwarded"));
    EXPECT_EQ(rep.deltaBytes, cell("deltaBytes"));
    EXPECT_EQ(rep.deltaDropped, cell("deltaDropped"));
    EXPECT_EQ(rep.stateBytes, cell("stateBytes"));
}

TEST(BoardBalance, OneHandOffPerEngineRolePerWindow)
{
    // Two planned moves off one DPU both need that DPU's source
    // role: the first launches, the second waits for a later window.
    PlaneGuard g;
    board::BalanceParams bal;
    bal.window = kWindow;
    bal.maxMigrationsPerWindow = 2;
    bal.keyPartitions = 16;
    const auto brd = topo::ClusterTopology::board(kDpus)
                         .boardBalance(bal)
                         .buildBoard();
    host::OffloadParams op;
    op.nCores = 8;
    host::BoardScheduler sched(*brd, op, host::makeHashRouter());
    board::BoardBalancer &b = *sched.balancer();

    // Three partitions that share one home, 100 requests each.
    std::vector<unsigned> home, perDpu(kDpus, 0);
    for (unsigned p = 0; p < bal.keyPartitions; ++p) {
        home.push_back(sched.partitions().homeOf(p, kDpus));
        ++perDpu[home.back()];
    }
    const unsigned hot = unsigned(
        std::max_element(perDpu.begin(), perDpu.end()) - perDpu.begin());
    ASSERT_GE(perDpu[hot], 3u);
    std::vector<double> loads(bal.keyPartitions, 0.0);
    unsigned picked = 0;
    for (unsigned p = 0; p < bal.keyPartitions && picked < 3; ++p) {
        if (home[p] != hot)
            continue;
        for (unsigned i = 0; i < 100; ++i)
            b.record(p);
        loads[p] = 100; // the first roll primes the EWMA raw
        ++picked;
    }

    // The planner alone proposes two moves, both off the hot DPU.
    std::vector<unsigned> planned = home;
    const std::vector<MigrationStep> plan =
        board::planMigrations(loads, planned, kDpus, bal);
    ASSERT_EQ(plan.size(), 2u);
    EXPECT_EQ(plan[0].from, hot);
    EXPECT_EQ(plan[1].from, hot);

    b.onWindowBoundary(kWindow);
    EXPECT_EQ(b.report().planned, 1u);
    EXPECT_TRUE(b.migrationsActive());
}

TEST(BoardBalance, StaticWindowZeroBoardMovesNothing)
{
    PlaneGuard g;
    // balance.window stays 0: static placement.
    const auto brd =
        topo::ClusterTopology::board(kDpus).threads(2).buildBoard();
    board::Board &b = *brd;
    host::OffloadParams op;
    op.nCores = 8;
    op.groupSize = 4;
    host::BoardScheduler sched(b, op, host::makeHashRouter());
    EXPECT_FALSE(sched.balanced());
    for (unsigned i = 0; i < 64; ++i)
        sched.offer(sim::Tick(i) * 4'000'000, i % 7, quickJob());
    sched.run();
    EXPECT_EQ(sched.partitions().reassignedCount(), 0u);
    EXPECT_EQ(b.fabric().migrationBytes(), 0u);
    EXPECT_EQ(b.fabric().totals().of(sim::Traffic::Migration).msgs,
              0u);
    EXPECT_EQ(sched.summary().completed, 64u);
}

TEST(BoardBalance, ServedOffersAreFreedOnBothPaths)
{
    PlaneGuard g;
    for (const bool balanced : {false, true}) {
        const auto brd =
            balanced ? balancedBoard(1)
                     : topo::ClusterTopology::board(kDpus).buildBoard();
        host::OffloadParams op;
        op.nCores = 8;
        op.groupSize = 4;
        host::BoardScheduler sched(*brd, op, host::makeHashRouter());
        ASSERT_EQ(sched.balanced(), balanced);

        // Each request's makeJob holds a copy of the token, so its
        // use_count() counts the requests still alive.
        const auto token = std::make_shared<int>(0);
        for (unsigned i = 0; i < 64; ++i) {
            host::JobRequest req = quickJob();
            req.makeJob = [token, make = std::move(req.makeJob)](
                              const apps::ServingContext &ctx) {
                return make(ctx);
            };
            sched.offer(sim::Tick(i) * 40'000'000, i % kParts,
                        std::move(req));
        }
        EXPECT_EQ(token.use_count(), 65);
        sched.run();
        EXPECT_EQ(sched.summary().completed, 64u);
        EXPECT_EQ(token.use_count(), 1)
            << (balanced ? "balanced" : "static")
            << " path: a served request is still held";
    }
}

TEST(BoardBalance, OfferAtAWindowBoundaryIsAdmittedAtThatTick)
{
    PlaneGuard g;
    Scenario sc(1);
    // The second offer reaches its shard in the host phase at the
    // first boundary, when the shard's idle A9 is blocked.
    sc.sched->offer(0, 0, quickJob());
    sc.sched->offer(kWindow, 0, quickJob());
    sc.sched->run();

    const auto &jobs = sc.sched->shard(sc.hotDpu).jobs();
    ASSERT_EQ(jobs.size(), 2u);
    EXPECT_EQ(jobs[0].enqueuedAt, 0u);
    EXPECT_EQ(jobs[1].enqueuedAt, kWindow)
        << "the appended arrival must wake its A9 on time";
    EXPECT_EQ(sc.sched->summary().completed, 2u);
}

// ----------------------------------------------------------------
// Failure walls
// ----------------------------------------------------------------

TEST(BoardBalance, ExhaustedRetransmitsAbortCleanlyAndKeepHomes)
{
    PlaneGuard g;
    // Every fabric message drops: each migration chunk burns its
    // full retransmit budget, fails at the source, and the
    // migration aborts once its engines drain. Homes never flip.
    sim::faultPlane().configure("link.drop@p=1", 7);
    Scenario s(2);
    s.offerSkewed(240);
    s.sched->run();

    const auto &rep = s.bal().report();
    EXPECT_EQ(rep.committed, 0u);
    EXPECT_GE(rep.aborted, 1u);
    EXPECT_EQ(rep.timeoutAborts, 0u)
        << "a drained failure must abort cleanly, not time out";
    // The first chunk alone retries 1 + dmaRetries times.
    EXPECT_GE(rep.chunkRetries, std::uint64_t(1 + board::dmaRetries));
    EXPECT_EQ(s.homes(), s.initialHome);
    EXPECT_EQ(s.sched->partitions().reassignedCount(), 0u);

    // Forwarding-epoch deltas were all lost on the wire — counted,
    // never retried (best effort, like PR-8).
    EXPECT_EQ(rep.deltaDropped, rep.forwarded);

    // Nothing landed: the migration byte class carries only
    // DELIVERED migration traffic; drops burn the dropped class.
    EXPECT_EQ(s.brd->fabric().migrationBytes(), 0u);
    EXPECT_GT(s.brd->fabric().droppedBytes(), 0u);
    expectImagesIntact(s);
    expectInvariants(s);
    EXPECT_EQ(s.sched->summary().completed, 240u);
}

TEST(BoardBalance, LinkCellsReadTheFabricTotalsUnderDrops)
{
    // The balanced scenario under link drops and delays, with
    // host-phase Workload sends beside the balancer's chunks and
    // deltas: every "link" cell reads the fabric's own totals, per
    // fate class and per channel, and the landers' stale deliveries
    // read as one board.balance cell. The 900 us delays land some
    // chunks of aborted migrations after the abort, as stale ones.
    PlaneGuard g;
    sim::faultPlane().configure(
        "link.drop@p=0.5;link.delay@p=0.5,mag=900000000", 5);
    Scenario s(2);
    board::LinkFabric &fab = s.brd->fabric();
    std::map<std::string, std::uint64_t> carried; // Workload, by channel
    for (unsigned i = 0; i < 48; ++i) {
        const unsigned src = i % kDpus;
        const unsigned dst = (src + 1 + i / kDpus % (kDpus - 1)) % kDpus;
        const std::uint64_t bytes = 64 + 40 * i;
        bool dropped = false;
        fab.send(src, dst, bytes, sim::Traffic::Workload, [] {},
                 dropped);
        if (!dropped)
            carried["ch" + std::to_string(src) + "to" +
                    std::to_string(dst)] += bytes;
    }
    s.offerSkewed(240);
    s.sched->run();

    const sim::ChannelTotals t = fab.totals();
    ASSERT_GT(t.of(sim::Traffic::Workload).msgs, 0u);
    ASSERT_GT(t.of(sim::Traffic::Migration).msgs, 0u);
    ASSERT_GT(t.dropped.msgs, 0u);
    ASSERT_GT(t.delays, 0u);
    std::map<std::string, std::uint64_t> want;
    const auto fate = [&want](const char *msgs, const char *bytes,
                              const sim::Tally &c) {
        if (c.msgs) {
            want[msgs] = c.msgs;
            want[bytes] = c.bytes;
        }
    };
    fate("msgs", "bytes", t.of(sim::Traffic::Workload));
    fate("migMsgs", "migBytes", t.of(sim::Traffic::Migration));
    fate("probeMsgs", "probeBytes", t.of(sim::Traffic::Probe));
    fate("drops", "dropBytes", t.dropped);
    want["delayed"] = t.delays;
    for (unsigned src = 0; src < kDpus; ++src) {
        for (unsigned dst = 0; dst < kDpus; ++dst) {
            const std::string ch = "ch" + std::to_string(src) + "to" +
                                   std::to_string(dst);
            const sim::Tick busy =
                fab.channel(src * kDpus + dst).busyTicks();
            EXPECT_EQ(busy > 0, carried.count(ch) == 1) << ch;
            if (carried.count(ch)) {
                want[ch + ".bytes"] = carried[ch];
                want[ch + ".busyTicks"] = busy;
            }
        }
    }

    // No bulk DMA runs here, so the fabric's cells are all of them.
    const sim::StatsSnapshot snap =
        sim::StatsRegistry::instance().snapshot();
    std::map<std::string, std::uint64_t> link;
    for (const auto &[key, value] : snap.counters)
        if (key.starts_with("link."))
            link[key.substr(5)] = value;
    EXPECT_EQ(link, want);
    expectInvariants(s);

    std::uint64_t stale = 0;
    for (unsigned d = 0; d < kDpus; ++d)
        stale += s.bal().lander(d).staleDeliveries();
    const auto it = snap.counters.find("board.balance.staleDeliveries");
    EXPECT_GT(stale, 0u) << "the stale path was not exercised";
    EXPECT_EQ(it == snap.counters.end() ? 0 : it->second, stale);
}

TEST(BoardBalance, WedgedDmacTimesOutPoisonsRolesAndRunFinishes)
{
    PlaneGuard g;
    // The first staging descriptor wedges its DMAC: the chunk never
    // completes, the migration cannot drain, and only the timeout
    // bound at a window boundary can retire it. ate.drop is armed
    // too (the chaos slice's second site); this workload gives it
    // nothing to bite, which is the point — it must stay inert.
    sim::faultPlane().configure(
        "dms.wedge@nth=1,max=1;ate.drop@p=0.05", 13);
    Scenario s(2);
    s.offerSkewed(240);
    s.sched->run();

    const auto &rep = s.bal().report();
    EXPECT_GE(rep.timeoutAborts, 1u);
    // The wedge budget is per fault domain (per DPU), so every
    // source DPU that attempted a hand-off lost its engine DMAC.
    unsigned poisoned = 0;
    for (unsigned d = 0; d < kDpus; ++d)
        poisoned += s.bal().srcPoisoned(d) ? 1 : 0;
    EXPECT_GE(poisoned, 1u) << "a wedged source role must poison";
    EXPECT_EQ(std::uint64_t(poisoned), rep.timeoutAborts);

    // The wedged partition stayed home with its bytes intact, and
    // the run terminated (we are here) despite the hung engine.
    expectImagesIntact(s);
    expectInvariants(s);
    EXPECT_EQ(s.sched->summary().completed, 240u);
    EXPECT_GE(sim::faultPlane().injected(sim::FaultSite::DmsWedge),
              1u);
}

// ----------------------------------------------------------------
// Determinism wall: migrations live, thread count invisible
// ----------------------------------------------------------------

namespace {

struct BalancedRunResult
{
    sim::StatsSnapshot snap;
    std::string trace;
    std::vector<std::uint8_t> images;
    std::vector<unsigned> homes;
};

BalancedRunResult
runBalancedScenario(unsigned threads, const char *faults,
                    std::uint64_t fault_seed)
{
    sim::faultPlane().reset();
    if (faults)
        sim::faultPlane().configure(faults, fault_seed);
    sim::tracer().arm(std::size_t(1) << 14);

    BalancedRunResult out;
    {
        Scenario s(threads);
        s.offerSkewed(160);
        s.sched->run();
        out.images = s.images();
        out.homes = s.homes();
        out.snap = sim::StatsRegistry::instance().snapshot();
        out.snap.counters["sim.finalTick"] = s.brd->now();
    }
    std::ostringstream os;
    sim::tracer().exportJson(os);
    out.trace = os.str();

    sim::tracer().disarm();
    sim::tracer().clear();
    sim::faultPlane().reset();
    return out;
}

} // namespace

TEST(BoardBalance, TenMigratingRunsAcrossThreadCountsBitIdentical)
{
    // Live migrations under a seeded link-fault schedule (drops
    // exercise the retransmit path mid-run), ten runs across
    // --threads {1, 2, 4}: stats, traces, homes and every DDR
    // partition image must match the serial reference bit for bit.
    const char *spec = "link.drop@p=0.05;link.delay@p=0.05";
    const unsigned plan[10] = {1, 1, 2, 2, 2, 2, 4, 4, 4, 4};

    BalancedRunResult ref;
    for (unsigned i = 0; i < 10; ++i) {
        BalancedRunResult r = runBalancedScenario(plan[i], spec, 42);
        ASSERT_FALSE(r.snap.counters.empty());
        if (i == 0) {
            ref = std::move(r);
            EXPECT_FALSE(ref.trace.empty());
            continue;
        }
        const auto diffs = sim::diffSnapshots(ref.snap, r.snap);
        EXPECT_TRUE(diffs.empty())
            << "run " << i << " (threads=" << plan[i] << "): "
            << diffs.size() << " stat(s) diverged from serial:\n"
            << sim::formatDiffs(diffs);
        EXPECT_EQ(r.trace, ref.trace)
            << "run " << i << " (threads=" << plan[i]
            << "): trace digest diverged";
        EXPECT_EQ(r.homes, ref.homes)
            << "run " << i << ": partition homes diverged";
        EXPECT_EQ(r.images, ref.images)
            << "run " << i << ": DDR partition images diverged";
    }
}

// ----------------------------------------------------------------
// Topology validation + misuse
// ----------------------------------------------------------------

TEST(BoardBalance, TopologyValidatesBalancerKnobs)
{
    // The policy rows hold at both tiers (the rack through
    // .placement(), the board through .boardBalance()); the
    // keyPartitions row exists on the board alone.
    struct BadKnob
    {
        const char *field;
        bool boardOnly;
        void (*spoil)(board::BalanceParams &);
    };
    const BadKnob rows[] = {
        {"ewmaAlpha", false,
         [](board::BalanceParams &p) { p.ewmaAlpha = 0; }},
        {"hotFactor", false,
         [](board::BalanceParams &p) { p.hotFactor = 0.5; }},
        {"maxMigrationsPerWindow", false,
         [](board::BalanceParams &p) { p.maxMigrationsPerWindow = 0; }},
        {"keyPartitions", true,
         [](board::BalanceParams &p) { p.keyPartitions = 0; }},
    };
    auto onBoard = [](const board::BalanceParams &p) {
        return topo::ClusterTopology::board(4)
            .boardBalance(p)
            .validate();
    };
    auto onRack = [](const BalancePolicy &p) {
        rack::PlacementParams pl;
        pl.balance = p;
        return topo::ClusterTopology::rack(2, 1).placement(pl).validate();
    };

    board::BalanceParams on;
    on.window = kWindow;
    EXPECT_EQ(onBoard(on), "");
    EXPECT_EQ(onRack(on), "");

    for (const BadKnob &row : rows) {
        SCOPED_TRACE(row.field);
        board::BalanceParams bad = on;
        row.spoil(bad);
        const std::string err = onBoard(bad);
        EXPECT_NE(err.find(row.field), std::string::npos) << err;
        EXPECT_EQ(err, board::checkBalance(bad));
        if (row.boardOnly) {
            EXPECT_EQ(onRack(bad), "");
        } else {
            // One sentence for one bad knob, whichever tier has it.
            EXPECT_EQ(onRack(bad), err);
        }

        // window = 0 disables the balancer AND its policy rows;
        // the board's partition table needs keyPartitions anyway.
        bad.window = 0;
        EXPECT_EQ(onBoard(bad), row.boardOnly ? err : "");
        EXPECT_EQ(onRack(bad), "");
    }
}

TEST(BoardBalanceDeathTest, EngineCoreManagedBySchedulerDies)
{
    PlaneGuard g;
    const auto brd = balancedBoard(1);
    host::OffloadParams op;
    op.nCores = 32; // claims every core, including the engine's
    EXPECT_DEATH(host::BoardScheduler(*brd, op, host::makeHashRouter()),
                 "engine core");
}
