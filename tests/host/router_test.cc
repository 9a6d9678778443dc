/**
 * @file
 * Routing-law property tests for the board's hash router
 * (host/router.hh), the partition map both tiers route keyed
 * requests through, and the placement hash they share
 * (board/balance.hh). These are the invariants the board and rack
 * schedulers lean on: hash purity and spread, replica-group
 * membership as a pure function of the partition, and a placement
 * hash pinned to known values.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "board/balance.hh"
#include "host/offload.hh"
#include "host/router.hh"

using namespace dpu;

namespace {

host::JobRequest
seededReq(std::uint64_t seed)
{
    host::JobRequest r;
    r.app = "serve";
    r.seed = seed;
    return r;
}

/** The explicit replica group of @p partition on @p n nodes at
 *  width @p r: {g, g+1, ... mod n}, g its hash home. */
std::vector<unsigned>
hashGroup(unsigned partition, unsigned n, unsigned r)
{
    const unsigned g = board::hashHome(partition, n);
    std::vector<unsigned> out;
    for (unsigned i = 0; i < std::min(r, n); ++i)
        out.push_back((g + i) % n);
    return out;
}

} // namespace

// ----------------------------------------------------------------
// Hash router
// ----------------------------------------------------------------

TEST(HashRouter, IsAPureFunctionOfTheRequest)
{
    const host::Router r;
    for (std::uint64_t k = 0; k < 512; ++k) {
        const host::JobRequest req = seededReq(k);
        const unsigned s = r.route(req, 7);
        ASSERT_LT(s, 7u);
        EXPECT_EQ(r.route(req, 7), s);
        EXPECT_EQ(s, board::placementHash(req.app, req.seed) % 7);
    }
}

TEST(HashRouter, SpreadsKeysAcrossAllShards)
{
    const host::Router r;
    std::map<unsigned, unsigned> hist;
    const unsigned n = 8, keys = 4096;
    for (std::uint64_t k = 0; k < keys; ++k)
        ++hist[r.route(seededReq(k), n)];
    ASSERT_EQ(hist.size(), n);
    for (const auto &[shard, cnt] : hist) {
        // Crude balance bound: every shard within 2x of fair share.
        EXPECT_GT(cnt, keys / n / 2) << "shard " << shard;
        EXPECT_LT(cnt, keys / n * 2) << "shard " << shard;
    }
}

TEST(HashRouter, AppNameAndSeedBothFeedTheMix)
{
    const host::Router r;
    host::JobRequest a = seededReq(99);
    host::JobRequest b = seededReq(99);
    b.app = "other-app";
    // Not a universal law for any single pair, so probe many seeds:
    // the two apps must disagree somewhere.
    bool differ = false;
    for (std::uint64_t s = 0; s < 64 && !differ; ++s) {
        a.seed = b.seed = s;
        differ = r.route(a, 16) != r.route(b, 16);
    }
    EXPECT_TRUE(differ);
}

// ----------------------------------------------------------------
// The partition map both tiers route keyed requests through
// ----------------------------------------------------------------

TEST(PartitionMap, DefaultMapIsTheHashGroup)
{
    // A map with no reassignments homes every partition on its hash
    // home and fails over along its hash group — this is what keeps
    // static racks on their golden snapshots.
    const unsigned parts = 64;
    for (unsigned repl : {1u, 2u, 3u}) {
        const board::PartitionMap pm(parts, repl);
        for (unsigned n : {4u, 8u}) {
            for (unsigned p = 0; p < parts; ++p) {
                EXPECT_EQ(pm.homeOf(p, n), board::hashHome(p, n));
                EXPECT_EQ(pm.candidates(p, n), hashGroup(p, n, repl))
                    << "partition " << p << ", " << n
                    << " nodes, replication " << repl;
            }
            EXPECT_EQ(pm.homes(n).size(), parts);
        }
        EXPECT_EQ(pm.reassignedCount(), 0u);
    }
}

TEST(PartitionMap, GroupMembershipIsIndependentOfReplication)
{
    // The group a partition lands in depends only on (partition,
    // n); replication only widens the candidate list. This is what
    // lets a rack raise replication without migrating data.
    const unsigned parts = 512, n = 8;
    const board::PartitionMap m1(parts, 1), m2(parts, 2), m3(parts, 3);
    for (unsigned p = 0; p < parts; ++p) {
        const std::vector<unsigned> c1 = m1.candidates(p, n);
        const std::vector<unsigned> c2 = m2.candidates(p, n);
        const std::vector<unsigned> c3 = m3.candidates(p, n);
        ASSERT_EQ(c1.size(), 1u);
        ASSERT_EQ(c2.size(), 2u);
        ASSERT_EQ(c3.size(), 3u);
        // Wider replication extends, never reorders.
        EXPECT_EQ(c2[0], c1[0]);
        EXPECT_EQ(c3[0], c1[0]);
        EXPECT_EQ(c3[1], c2[1]);
        // Candidates are distinct nodes.
        const std::set<unsigned> uniq(c3.begin(), c3.end());
        EXPECT_EQ(uniq.size(), c3.size()) << "partition " << p;
    }
}

TEST(PartitionMap, GroupsWrapAndClampToTheNodeCount)
{
    const unsigned parts = 16;
    const board::PartitionMap pm(parts, 4);
    for (unsigned p = 0; p < parts; ++p) {
        // Replication 4 over 2 nodes: the list clamps to 2.
        const std::vector<unsigned> c = pm.candidates(p, 2);
        ASSERT_EQ(c.size(), 2u);
        EXPECT_NE(c[0], c[1]);
        // And over 3 nodes the group wraps modulo n.
        const std::vector<unsigned> w = pm.candidates(p, 3);
        ASSERT_EQ(w.size(), 3u);
        EXPECT_EQ(w, hashGroup(p, 3, 4));
        for (unsigned i = 1; i < w.size(); ++i)
            EXPECT_EQ(w[i], (w[0] + i) % 3);
    }
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

TEST(PlacementHash, MatchesPinnedValues)
{
    // placementHash places every keyless request and every hash
    // home: a reformulated mix (which would silently move every
    // request in every golden) must fail here first, not in a
    // golden diff three layers up.
    EXPECT_EQ(board::placementHash("serve", 0xdeadbeef), 0xdcb2ce54u);
    EXPECT_EQ(board::placementHash("", 0), 0x21e9da04u);
    EXPECT_EQ(board::placementHash("filter", 0x123456789abcdef0ull),
              0x81c361adu);
    const std::vector<unsigned> homes{0, 2, 1, 3, 2, 0, 3, 1,
                                      1, 3, 0, 2, 3, 1, 2, 0};
    for (unsigned p = 0; p < homes.size(); ++p)
        EXPECT_EQ(board::hashHome(p, 4), homes[p]) << "partition " << p;
}
