/**
 * @file
 * Routing-law property tests for the pluggable Router policies
 * (host/router.hh) and the partition map both tiers route keyed
 * requests through (board/balance.hh). These are the invariants the
 * board and rack schedulers lean on: hash purity and spread,
 * replica-group membership as a pure function of the request, exact
 * round-robin fairness, hash homes equal to the replica-group
 * routing, and a stable placement hash.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "board/balance.hh"
#include "host/router.hh"
#include "sim/rng.hh"

using namespace dpu;
using host::RouteInfo;
using host::Router;

namespace {

RouteInfo
seededReq(std::uint64_t seed)
{
    RouteInfo r;
    r.app = "serve";
    r.seed = seed;
    return r;
}

} // namespace

// ----------------------------------------------------------------
// Hash policy
// ----------------------------------------------------------------

TEST(HashRouter, IsAPureFunctionOfTheRequest)
{
    auto a = host::makeHashRouter();
    auto b = host::makeHashRouter();
    for (std::uint64_t k = 0; k < 512; ++k) {
        const unsigned s = a->route(seededReq(k), 7);
        ASSERT_LT(s, 7u);
        // Same request, same instance, interleaved with other
        // requests: still the same shard (no hidden state).
        EXPECT_EQ(a->route(seededReq(k), 7), s);
        // And a fresh instance agrees: the policy has no per-
        // instance identity.
        EXPECT_EQ(b->route(seededReq(k), 7), s);
    }
}

TEST(HashRouter, SpreadsKeysAcrossAllShards)
{
    auto r = host::makeHashRouter();
    std::map<unsigned, unsigned> hist;
    const unsigned n = 8, keys = 4096;
    for (std::uint64_t k = 0; k < keys; ++k)
        ++hist[r->route(seededReq(k), n)];
    ASSERT_EQ(hist.size(), n);
    for (const auto &[shard, cnt] : hist) {
        // Crude balance bound: every shard within 2x of fair share.
        EXPECT_GT(cnt, keys / n / 2) << "shard " << shard;
        EXPECT_LT(cnt, keys / n * 2) << "shard " << shard;
    }
}

TEST(HashRouter, AppNameAndSeedBothFeedTheMix)
{
    auto r = host::makeHashRouter();
    RouteInfo a = seededReq(99);
    RouteInfo b = seededReq(99);
    b.app = "other-app";
    // Not a universal law for any single pair, so probe many seeds:
    // the two apps must disagree somewhere.
    bool differ = false;
    for (std::uint64_t s = 0; s < 64 && !differ; ++s) {
        a.seed = b.seed = s;
        differ = r->route(a, 16) != r->route(b, 16);
    }
    EXPECT_TRUE(differ);
}

// ----------------------------------------------------------------
// Round-robin policy
// ----------------------------------------------------------------

TEST(RoundRobinRouter, ExactFairnessInArrivalOrder)
{
    auto r = host::makeRoundRobinRouter();
    const unsigned n = 5, laps = 40;
    std::vector<unsigned> cnt(n, 0);
    for (unsigned i = 0; i < n * laps; ++i) {
        const unsigned s = r->route(seededReq(i * 7919), n);
        EXPECT_EQ(s, i % n) << "arrival " << i;
        ++cnt[s];
    }
    for (unsigned s = 0; s < n; ++s)
        EXPECT_EQ(cnt[s], laps) << "shard " << s;
}

TEST(RoundRobinRouter, CandidatesAdvanceTheCursorExactlyOnce)
{
    auto r = host::makeRoundRobinRouter();
    std::vector<unsigned> c;
    r->candidates(seededReq(1), 4, c);
    ASSERT_EQ(c.size(), 1u);
    EXPECT_EQ(c[0], 0u);
    // The next arrival continues the stripe where candidates()
    // left off — one cursor step per request, not per candidate.
    EXPECT_EQ(r->route(seededReq(2), 4), 1u);
}

// ----------------------------------------------------------------
// Replica-group policy (the rack placement law)
// ----------------------------------------------------------------

TEST(ReplicaGroupRouter, MembershipIsAPureFunctionOfTheKey)
{
    // The group a request lands in depends only on (request,
    // nShards) —
    // replication only widens the candidate list. This is what
    // lets a rack raise replication without migrating data.
    auto r1 = host::makeReplicaGroupRouter(1);
    auto r2 = host::makeReplicaGroupRouter(2);
    auto r3 = host::makeReplicaGroupRouter(3);
    const unsigned n = 8;
    for (std::uint64_t k = 0; k < 512; ++k) {
        const RouteInfo req = seededReq(k);
        const unsigned primary = r1->route(req, n);
        EXPECT_EQ(r2->route(req, n), primary);
        EXPECT_EQ(r3->route(req, n), primary);

        std::vector<unsigned> c1, c2, c3;
        r1->candidates(req, n, c1);
        r2->candidates(req, n, c2);
        r3->candidates(req, n, c3);
        ASSERT_EQ(c1.size(), 1u);
        ASSERT_EQ(c2.size(), 2u);
        ASSERT_EQ(c3.size(), 3u);
        // Wider replication extends, never reorders: c2 and c3
        // share c1 as a prefix.
        EXPECT_EQ(c2[0], c1[0]);
        EXPECT_EQ(c3[0], c1[0]);
        EXPECT_EQ(c3[1], c2[1]);
        // Candidates are distinct shards.
        std::set<unsigned> uniq(c3.begin(), c3.end());
        EXPECT_EQ(uniq.size(), c3.size()) << "key " << k;
    }
}

TEST(ReplicaGroupRouter, GroupsWrapAndClampToTheShardCount)
{
    auto r = host::makeReplicaGroupRouter(4);
    // replication 4 over 2 shards: candidate list clamps to 2.
    std::vector<unsigned> c;
    r->candidates(seededReq(3), 2, c);
    ASSERT_EQ(c.size(), 2u);
    EXPECT_NE(c[0], c[1]);
    // And over 3 shards the group wraps modulo nShards.
    std::vector<unsigned> w;
    r->candidates(seededReq(3), 3, w);
    ASSERT_EQ(w.size(), 3u);
    for (unsigned i = 1; i < w.size(); ++i)
        EXPECT_EQ(w[i], (w[0] + i) % 3);
}

// ----------------------------------------------------------------
// The partition map both tiers route keyed requests through
// ----------------------------------------------------------------

namespace {

/** A bare partition index as a routing slice (empty app, the
 *  partition as the seed): what board::hashHome() mixes. */
RouteInfo
partReq(unsigned partition)
{
    RouteInfo r;
    r.seed = partition;
    return r;
}

} // namespace

TEST(PartitionMap, DefaultMapMatchesReplicaGroupRouting)
{
    // A map with no reassignments must be bit-identical to the
    // replica-group policy over the same partitions — this is what
    // keeps static racks on their golden snapshots.
    const unsigned parts = 64;
    const board::PartitionMap pm(parts, 2);
    auto rg = host::makeReplicaGroupRouter(2);
    for (unsigned n : {4u, 8u}) {
        for (unsigned p = 0; p < parts; ++p) {
            EXPECT_EQ(pm.homeOf(p, n), rg->route(partReq(p), n));
            EXPECT_EQ(pm.homeOf(p, n), board::hashHome(p, n));
            std::vector<unsigned> b;
            rg->candidates(partReq(p), n, b);
            EXPECT_EQ(pm.candidates(p, n), b)
                << "partition " << p << ", " << n << " shards";
        }
        EXPECT_EQ(pm.homes(n).size(), parts);
    }
    EXPECT_EQ(pm.reassignedCount(), 0u);
}

TEST(PartitionMap, ReassignRehomesOnePartitionOnly)
{
    const unsigned parts = 16, n = 4;
    board::PartitionMap pm(parts, 2);
    const unsigned victim = 5;
    const unsigned oldHome = pm.homeOf(victim, n);
    const unsigned newHome = (oldHome + 2) % n;
    pm.reassign(victim, newHome);

    EXPECT_TRUE(pm.reassigned(victim));
    EXPECT_EQ(pm.reassignedCount(), 1u);
    EXPECT_EQ(pm.homeOf(victim, n), newHome);
    EXPECT_EQ(pm.homes(n)[victim], newHome);
    // The hash home is remembered underneath the override.
    EXPECT_EQ(board::hashHome(victim, n), oldHome);
    // Every other partition still routes by hash.
    for (unsigned p = 0; p < parts; ++p) {
        if (p == victim)
            continue;
        EXPECT_EQ(pm.homeOf(p, n), board::hashHome(p, n));
        EXPECT_FALSE(pm.reassigned(p));
    }
    // Failover order after the move: the new home leads, and the
    // candidate list keeps its width and stays duplicate-free.
    const std::vector<unsigned> c = pm.candidates(victim, n);
    ASSERT_EQ(c.size(), 2u);
    EXPECT_EQ(c[0], newHome);
    EXPECT_NE(c[1], c[0]);
}

// ----------------------------------------------------------------
// Shared hash
// ----------------------------------------------------------------

TEST(RouterHash, SeedPathIsStable)
{
    // routeHash is the one placement mix every hash policy shares:
    // an accidental reformulation (which would silently migrate
    // every request in every golden) must show up here first, not
    // in a golden diff three layers up.
    const std::uint32_t hs =
        host::routeHash(seededReq(0xdeadbeef));
    EXPECT_EQ(host::routeHash(seededReq(0xdeadbeef)), hs);
    EXPECT_NE(host::routeHash(seededReq(0xdeadbef0)), hs);
}
