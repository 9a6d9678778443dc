/**
 * @file
 * ClusterTopology tests: the one builder constructs every tier,
 * validation catches every malformed shape with a message naming
 * the offending field, a hand-built RackScheduler dies with the same
 * sentence, and the law "validate() accepts => the spec builds, its
 * scheduler constructs and a short run completes" holds over seeded
 * random specs.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "host/board_offload.hh"
#include "rack/scheduler.hh"
#include "sim/event_queue.hh"
#include "sim/fault.hh"
#include "sim/rng.hh"
#include "topo/topology.hh"

using namespace dpu;
using topo::ClusterTopology;

namespace {

constexpr sim::Tick kUs = 1'000'000;
constexpr sim::Tick kMs = 1'000'000'000;

/** @p s with every POSIX-regex metacharacter escaped. */
std::string
literal(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (std::string("\\^$.|?*+()[]{}").find(c) !=
            std::string::npos)
            out += '\\';
        out += c;
    }
    return out;
}

} // namespace

TEST(ClusterTopology, BuildsASoc)
{
    sim::faultPlane().reset();
    ClusterTopology t = ClusterTopology::soc().chip(soc::dpu16nm());
    EXPECT_EQ(t.validate(), "");
    EXPECT_EQ(t.tier(), topo::Tier::Soc);
    EXPECT_EQ(t.totalDpus(), 1u);
    sim::EventQueue q;
    auto s = t.buildSoc(q);
    ASSERT_TRUE(s);
    EXPECT_EQ(s->params().nComplexes,
              soc::dpu16nm().nComplexes);
}

TEST(ClusterTopology, BuildsABoard)
{
    sim::faultPlane().reset();
    ClusterTopology t = ClusterTopology::board(4).threads(2);
    EXPECT_EQ(t.validate(), "");
    EXPECT_EQ(t.totalDpus(), 4u);

    auto b = t.buildBoard();
    ASSERT_TRUE(b);
    EXPECT_EQ(b->nDpus(), 4u);
    EXPECT_EQ(b->runnerThreads(), 2u);
}

TEST(ClusterTopology, BuildsARack)
{
    sim::faultPlane().reset();
    rack::PlacementParams pl;
    pl.replication = 3;
    ClusterTopology t = ClusterTopology::rack(4, 2).placement(pl);
    EXPECT_EQ(t.validate(), "");
    EXPECT_EQ(t.nBoards(), 4u);
    EXPECT_EQ(t.totalDpus(), 8u);

    auto r = t.buildRack();
    ASSERT_TRUE(r);
    EXPECT_EQ(r->nBoards(), 4u);
    EXPECT_EQ(r->nDpus(), 8u);
}

TEST(ClusterTopologyValidation, NamesTheOffendingField)
{
    using topo::ClusterTopology;

    EXPECT_NE(ClusterTopology::board(0).validate().find("DPU"),
              std::string::npos);
    EXPECT_NE(
        ClusterTopology::rack(0, 2).validate().find("nBoards"),
        std::string::npos);
    EXPECT_NE(ClusterTopology::board(2).threads(0).validate().find(
                  "threads"),
              std::string::npos);

    rack::PlacementParams overRep;
    overRep.replication = 4;
    const std::string overRepErr =
        ClusterTopology::rack(2, 2).placement(overRep).validate();
    EXPECT_NE(overRepErr.find("replication 4"), std::string::npos);
    EXPECT_NE(overRepErr.find("2 boards"), std::string::npos);

    rack::PlacementParams halfAdmit;
    halfAdmit.admitWindow = 100;
    halfAdmit.admitPerWindow = 0;
    EXPECT_NE(ClusterTopology::rack(2, 2)
                  .placement(halfAdmit)
                  .validate()
                  .find("admit"),
              std::string::npos);

    // A rack balances through placement.balance; a live board
    // balancer there would seed state nobody plans over.
    board::BalanceParams live;
    live.window = 250 * kUs;
    EXPECT_NE(ClusterTopology::rack(2, 2)
                  .boardBalance(live)
                  .validate()
                  .find("boardBalance"),
              std::string::npos);

    // A live board balancer's state ranges start at 192 MiB.
    soc::SocParams small = soc::dpu40nm();
    small.ddrBytes = std::size_t(64) << 20;
    EXPECT_NE(ClusterTopology::board(2)
                  .chip(small)
                  .boardBalance(live)
                  .validate()
                  .find("ddrBytes"),
              std::string::npos);

    // DDR past mem::dmemBase would overlap the DMEM apertures; a
    // lone chip is checked too.
    soc::SocParams overlap = soc::dpu40nm();
    overlap.ddrBytes = mem::dmemBase + (std::size_t(1) << 20);
    EXPECT_NE(ClusterTopology::soc().chip(overlap).validate().find(
                  "SocParams.ddrBytes"),
              std::string::npos);

    // A valid spec reports no error.
    EXPECT_EQ(ClusterTopology::rack(2, 2).validate(), "");
    EXPECT_EQ(ClusterTopology::board(2).boardBalance(live).validate(),
              "");
}

TEST(ClusterTopologyValidation, DegenerateRackIsStillARack)
{
    // One board, one chip, replication 1: a valid (if pointless)
    // rack — the builder doesn't second-guess scale.
    rack::PlacementParams pl;
    pl.replication = 1;
    ClusterTopology t = ClusterTopology::rack(1, 1).placement(pl);
    EXPECT_EQ(t.validate(), "");
    sim::faultPlane().reset();
    auto r = t.buildRack();
    EXPECT_EQ(r->nDpus(), 1u);
}

TEST(RackSchedulerDeathTest, BadPlacementDiesWithTheTopologySentence)
{
    // The scheduler checks the same placement the topology
    // validates, so a hand-built one cannot slip a bad knob past
    // it: a zero migration budget, a detector that would skip
    // Suspect, or half an admission pair (which would silently
    // disable the cap).
    struct BadKnob
    {
        const char *field;
        void (*spoil)(rack::PlacementParams &);
    };
    const BadKnob rows[] = {
        {"maxMigrationsPerWindow",
         [](rack::PlacementParams &p) {
             p.balance.window = kMs;
             p.balance.maxMigrationsPerWindow = 0;
         }},
        {"suspectAfter",
         [](rack::PlacementParams &p) {
             p.health.heartbeatPeriod = 200 * kUs;
             p.health.downAfter = 1;
         }},
        {"admitPerWindow",
         [](rack::PlacementParams &p) { p.admitWindow = kMs; }},
    };
    sim::faultPlane().reset();
    const auto rk = ClusterTopology::rack(4, 1).buildRack();
    for (const BadKnob &row : rows) {
        SCOPED_TRACE(row.field);
        rack::PlacementParams place;
        row.spoil(place);
        const std::string err =
            rack::checkPlacement(place, rk->nBoards());
        ASSERT_NE(err.find(row.field), std::string::npos) << err;
        EXPECT_EQ(ClusterTopology::rack(4, 1).placement(place).validate(),
                  err);
        EXPECT_DEATH(rack::RackScheduler(*rk, {}, place),
                     literal(err));
    }
}

// ----------------------------------------------------------------
// The law: validate() accepts => build, schedule and run
// ----------------------------------------------------------------

namespace {

/** One drawn spec: a board or rack topology plus the placement its
 *  rack scheduler gets. */
struct LawSpec
{
    bool rackTier = false;
    unsigned nBoards = 1;
    unsigned dpus = 1;
    unsigned threads = 1;
    std::size_t ddrMiB = 16;
    rack::PlacementParams place;
    board::BalanceParams boardBal;

    ClusterTopology
    topology() const
    {
        soc::SocParams sp = soc::dpu40nm();
        sp.ddrBytes = ddrMiB << 20;
        ClusterTopology t = rackTier
                                ? ClusterTopology::rack(nBoards, dpus)
                                : ClusterTopology::board(dpus);
        t.chip(sp).threads(threads).placement(place).boardBalance(
            boardBal);
        return t;
    }
};

/** True one draw in sixteen: the field gets a value validate()
 *  must reject. */
bool
spoil(sim::Rng &rng)
{
    return rng.below(16) == 0;
}

/** A live balancer policy. */
void
drawPolicy(sim::Rng &rng, board::BalancePolicy &p)
{
    p.window = 250 * kUs;
    p.ewmaAlpha = spoil(rng) ? 0.0 : 0.7;
    p.hotFactor = spoil(rng) ? 0.5 : 1.1;
    p.maxMigrationsPerWindow =
        spoil(rng) ? 0 : 1 + unsigned(rng.below(2));
    p.minPartitionLoad = 1.0;
}

LawSpec
drawSpec(sim::Rng &rng)
{
    LawSpec s;
    s.rackTier = rng.below(2) != 0;
    s.nBoards = spoil(rng) ? 0 : 1 + unsigned(rng.below(4));
    s.dpus = spoil(rng) ? 0 : 1 + unsigned(rng.below(3));
    s.threads = spoil(rng) ? 0 : 1 + unsigned(rng.below(3));
    s.ddrMiB = std::size_t(16) << rng.below(3);

    rack::PlacementParams &pl = s.place;
    if (spoil(rng))
        pl.replication = rng.below(2) ? 0 : s.nBoards + 1;
    else
        pl.replication = 1 + unsigned(rng.below(std::max(s.nBoards, 1u)));
    if (rng.below(2)) {
        pl.admitWindow = 100 * kUs;
        pl.admitPerWindow = 4;
        if (spoil(rng))
            pl.admitWindow = 0;
        if (spoil(rng))
            pl.admitPerWindow = 0;
    }
    if (rng.below(2))
        drawPolicy(rng, pl.balance);
    if (rng.below(2)) {
        rack::HealthParams &h = pl.health;
        h.heartbeatPeriod = 50 * kUs;
        h.ackTimeout = spoil(rng) ? 0 : 20 * kUs;
        h.suspectAfter = spoil(rng) ? 0 : 1 + unsigned(rng.below(2));
        h.downAfter = spoil(rng) ? h.suspectAfter / 2
                                 : h.suspectAfter + unsigned(rng.below(3));
        h.rejoinAfter = spoil(rng) ? 0 : 1 + unsigned(rng.below(2));
    }

    s.boardBal.keyPartitions = spoil(rng) ? 0 : 4u << rng.below(4);
    if (rng.below(4) == 0) {
        drawPolicy(rng, s.boardBal);
        // A live board balancer seeds its state ranges at 192 MiB;
        // half of these chips have the room.
        s.dpus = std::min(s.dpus, 2u);
        s.ddrMiB = rng.below(2) ? 194 : 64;
    }
    return s;
}

/** A request whose lanes charge a few ALU ops: no DDR, no links. */
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

/** Build @p s, construct its tier's scheduler and serve eight
 *  requests 10 us apart. */
void
buildAndServe(const LawSpec &s)
{
    const ClusterTopology t = s.topology();
    host::OffloadParams op;
    op.nCores = 8; // arenas fit 16 MiB; the engine core stays free
    if (s.rackTier) {
        const auto r = t.buildRack();
        rack::RackScheduler sched(*r, op, s.place);
        for (unsigned i = 0; i < 8; ++i) {
            rack::RackRequest req;
            req.job = quickJob();
            req.key = i;
            sched.enqueueAt(sim::Tick(i) * 10 * kUs, std::move(req));
        }
        sched.start();
        r->run();
        EXPECT_TRUE(r->allFinished());
    } else {
        const auto b = t.buildBoard();
        host::BoardScheduler sched(*b, op, host::makeHashRouter());
        for (unsigned i = 0; i < 8; ++i)
            sched.offer(sim::Tick(i) * 10 * kUs, i, quickJob());
        sched.run();
        EXPECT_EQ(sched.summary().completed, 8u);
    }
}

} // namespace

TEST(ClusterTopologyLawDeathTest, AcceptedSpecsBuildAndServe)
{
    std::vector<LawSpec> specs;
    // Two shapes that build but cannot run, so validate() must
    // reject them: a rack with the board balancer live, and a board
    // whose balancer state lies past the chip's 64 MiB of DDR.
    LawSpec rackWithBoardBalancer;
    rackWithBoardBalancer.rackTier = true;
    rackWithBoardBalancer.nBoards = 2;
    rackWithBoardBalancer.dpus = 2;
    rackWithBoardBalancer.boardBal.window = 250 * kUs;
    specs.push_back(rackWithBoardBalancer);
    LawSpec stateOffTheChip;
    stateOffTheChip.dpus = 2;
    stateOffTheChip.ddrMiB = 64;
    stateOffTheChip.boardBal.window = 250 * kUs;
    specs.push_back(stateOffTheChip);

    sim::Rng rng(0x70b0109);
    for (unsigned i = 0; i < 64; ++i)
        specs.push_back(drawSpec(rng));

    unsigned accepted = 0, rejected = 0;
    for (std::size_t i = 0; i < specs.size(); ++i) {
        SCOPED_TRACE("spec " + std::to_string(i));
        sim::faultPlane().reset();
        const LawSpec &s = specs[i];
        const std::string err = s.topology().validate();
        if (i < 2) {
            EXPECT_NE(err, "");
        }
        if (err.empty()) {
            ++accepted;
            buildAndServe(s);
            continue;
        }
        // A rejected spec dies in build*() with the same sentence.
        if (rejected++ < 4) {
            EXPECT_DEATH(
                {
                    if (s.rackTier)
                        s.topology().buildRack();
                    else
                        s.topology().buildBoard();
                },
                literal(err));
        }
    }
    // Both sides of the law were exercised.
    EXPECT_GE(accepted, 8u);
    EXPECT_GE(rejected, 8u);
}
