/**
 * @file
 * Unit tests for StatGroup accessors, dump() ordering, the Counter
 * cells a group reads live (bare and prefixed names), reads that
 * leave the cells as they were, the StatsRegistry snapshot and its
 * removal of groups in any order, snapshot JSON round-tripping, and
 * the JSON reader's numbers beyond int64's range.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "sim/json.hh"
#include "sim/stats.hh"
#include "sim/stats_registry.hh"

using namespace dpu::sim;

TEST(StatGroup, CounterAndScalarAccessors)
{
    StatGroup g("g");
    Counter hits(g, "hits");
    hits += 7;
    hits += 3;
    g.scalar("ratio") = 0.25;

    EXPECT_EQ(g.get("hits"), 10u);
    EXPECT_EQ(g.get("absent"), 0u);
    EXPECT_DOUBLE_EQ(g.getScalar("ratio"), 0.25);
    EXPECT_DOUBLE_EQ(g.getScalar("absent"), 0.0);
}

TEST(StatGroup, DumpIsNameOrderedCountersThenScalars)
{
    StatGroup g("grp");
    Counter zeta(g, "zeta");
    Counter alpha(g, "alpha");
    ++zeta;
    alpha += 2;
    g.scalar("mid") = 1.5;

    std::ostringstream os;
    g.dump(os);
    EXPECT_EQ(os.str(),
              "grp.alpha = 2\n"
              "grp.zeta = 1\n"
              "grp.mid = 1.5\n");
}

TEST(StatGroup, CountersAreReadLiveAndShareACellAsASum)
{
    StatGroup g("ctr_test");
    Counter a(g, "n");
    Counter b(g, "n");

    // No cell until a counter is touched; an add of 0 touches it.
    EXPECT_TRUE(g.counterCells().empty());
    EXPECT_EQ(StatsRegistry::instance().snapshot().counters.count(
                  "ctr_test.n"),
              0u);
    a.add(0);
    ASSERT_EQ(g.counterCells().count("n"), 1u);
    EXPECT_EQ(g.get("n"), 0u);

    // Two counters naming one cell read as their sum everywhere.
    a += 3;
    ++b;
    ++b;
    EXPECT_EQ(a.value(), 3u);
    EXPECT_EQ(b.value(), 2u);
    EXPECT_EQ(g.get("n"), 5u);
    std::ostringstream os;
    g.dump(os);
    EXPECT_EQ(os.str(), "ctr_test.n = 5\n");
    EXPECT_EQ(StatsRegistry::instance().snapshot().counters.at(
                  "ctr_test.n"),
              5u);
}

TEST(StatGroup, PrefixedCounterReadsUnderItsComposedCell)
{
    StatGroup g("pfx_test");
    char prefix[8] = "ch0to1";
    Counter bytes(g, prefix, "bytes");
    Counter busy(g, prefix, "busyTicks");
    Counter bare(g, "bytes");
    bytes += 40;
    ++bare;

    // The prefix and the literal compose one cell; the bare literal
    // is a cell of its own, and the untouched counter has none.
    EXPECT_EQ(g.get("ch0to1.bytes"), 40u);
    EXPECT_EQ(g.get("bytes"), 1u);
    EXPECT_EQ(g.get("ch0to1"), 0u);
    EXPECT_EQ(g.get("ch0to1.byte"), 0u);
    EXPECT_EQ(g.get("ch0to1bytes"), 0u);
    const std::map<std::string, std::uint64_t> cells = g.counterCells();
    EXPECT_EQ(cells, (std::map<std::string, std::uint64_t>{
                         {"bytes", 1}, {"ch0to1.bytes", 40}}));
    EXPECT_EQ(StatsRegistry::instance().snapshot().counters.at(
                  "pfx_test.ch0to1.bytes"),
              40u);
}

TEST(StatGroup, ReadsRunNoCodeAndLeaveNoCell)
{
    StatGroup g("read_test");
    Counter hits(g, "hits");
    hits += 2;

    // Reading an absent name creates nothing.
    EXPECT_EQ(g.get("absent"), 0u);
    EXPECT_EQ(g.counterCells().count("absent"), 0u);
    EXPECT_EQ(StatsRegistry::instance().snapshot().counters.count(
                  "read_test.absent"),
              0u);

    // Two snapshots in a row are equal: a read changes no cell.
    const StatsSnapshot first = StatsRegistry::instance().snapshot();
    const StatsSnapshot second = StatsRegistry::instance().snapshot();
    EXPECT_TRUE(first == second);
    EXPECT_EQ(second.counters.at("read_test.hits"), 2u);
}

TEST(StatsRegistry, SnapshotCoversLiveGroupsOnly)
{
    const std::size_t before =
        StatsRegistry::instance().groupCount();
    StatsSnapshot outer;
    {
        StatGroup g("reg_test");
        Counter x(g, "x");
        x += 42;
        EXPECT_EQ(StatsRegistry::instance().groupCount(), before + 1);
        outer = StatsRegistry::instance().snapshot();
    }
    EXPECT_EQ(StatsRegistry::instance().groupCount(), before);
    EXPECT_EQ(outer.counters.at("reg_test.x"), 42u);
    // After destruction the group must vanish from new snapshots.
    StatsSnapshot after = StatsRegistry::instance().snapshot();
    EXPECT_EQ(after.counters.count("reg_test.x"), 0u);
}

TEST(StatsRegistry, DuplicateGroupNamesAreDisambiguated)
{
    StatGroup a("dup");
    StatGroup b("dup");
    Counter na(a, "n");
    Counter nb(b, "n");
    ++na;
    nb += 2;
    StatsSnapshot snap = StatsRegistry::instance().snapshot();
    EXPECT_EQ(snap.counters.at("dup.n"), 1u);
    EXPECT_EQ(snap.counters.at("dup#1.n"), 2u);
}

TEST(StatsRegistry, RemovingAFirstMiddleAndLastGroupKeepsTheRest)
{
    const std::size_t before = StatsRegistry::instance().groupCount();
    std::vector<std::unique_ptr<StatGroup>> groups;
    std::vector<std::unique_ptr<Counter>> counts;
    for (unsigned i = 0; i < 5; ++i) {
        groups.push_back(std::make_unique<StatGroup>("rm"));
        counts.push_back(std::make_unique<Counter>(*groups[i], "n"));
        *counts[i] += i + 1;
    }
    // Groups need not die in reverse creation order.
    for (unsigned i : {0u, 2u, 4u}) {
        counts[i].reset();
        groups[i].reset();
    }
    EXPECT_EQ(StatsRegistry::instance().groupCount(), before + 2);
    StatsSnapshot snap = StatsRegistry::instance().snapshot();
    EXPECT_EQ(snap.counters.at("rm.n"), 2u);
    EXPECT_EQ(snap.counters.at("rm#1.n"), 4u);
    EXPECT_EQ(snap.counters.count("rm#2.n"), 0u);

    // A group registered now follows the survivors.
    StatGroup late("rm");
    Counter n(late, "n");
    n += 9;
    snap = StatsRegistry::instance().snapshot();
    EXPECT_EQ(snap.counters.at("rm.n"), 2u);
    EXPECT_EQ(snap.counters.at("rm#1.n"), 4u);
    EXPECT_EQ(snap.counters.at("rm#2.n"), 9u);
}

TEST(StatsSnapshot, JsonRoundTrip)
{
    StatsSnapshot snap;
    snap.counters["a.big"] = 0xffffffffffffull; // > 2^32, exercises exactness
    snap.counters["a.zero"] = 0;
    snap.scalars["b.pi"] = 3.141592653589793;
    snap.scalars["b.neg"] = -0.5;
    snap.scalars["b.whole"] = 3.0;

    std::ostringstream os;
    snap.writeJson(os);

    StatsSnapshot back;
    std::string err;
    ASSERT_TRUE(StatsSnapshot::readJson(os.str(), back, err)) << err;
    EXPECT_TRUE(snap == back);
}

TEST(StatsSnapshot, ReadRejectsMalformedInput)
{
    StatsSnapshot out;
    std::string err;
    EXPECT_FALSE(StatsSnapshot::readJson("{", out, err));
    EXPECT_FALSE(err.empty());
    EXPECT_FALSE(StatsSnapshot::readJson("[]", out, err));
    EXPECT_FALSE(StatsSnapshot::readJson(
        "{\"counters\": {\"k\": -1}, \"scalars\": {}}", out, err));
    EXPECT_FALSE(StatsSnapshot::readJson(
        "{\"counters\": {\"k\": \"str\"}}", out, err));
}

TEST(Json, NumbersBeyondInt64ParseAsDoublesWithNoIntegerView)
{
    for (const char *text : {"1e300", "-1e300", "1e400"}) {
        json::Value v;
        std::string err;
        ASSERT_TRUE(json::parse(text, v, err)) << text << ": " << err;
        EXPECT_EQ(v.kind, json::Value::Kind::Double) << text;
        EXPECT_EQ(v.d, std::strtod(text, nullptr)) << text;
        EXPECT_EQ(v.i, 0) << text;
    }
}

TEST(Json, LiteralsParseAndTheirMisspellingsDoNot)
{
    json::Value v;
    std::string err;
    ASSERT_TRUE(json::parse("[true,false,null]", v, err)) << err;
    ASSERT_EQ(v.arr.size(), 3u);
    EXPECT_EQ(v.arr[0].kind, json::Value::Kind::Bool);
    EXPECT_TRUE(v.arr[0].b);
    EXPECT_EQ(v.arr[1].kind, json::Value::Kind::Bool);
    EXPECT_FALSE(v.arr[1].b);
    EXPECT_EQ(v.arr[2].kind, json::Value::Kind::Null);
    for (const char *text : {"tru", "nul", "falsey"})
        EXPECT_FALSE(json::parse(text, v, err)) << text;
}

TEST(StatsSnapshot, DiffFindsDriftMissingAndExtra)
{
    StatsSnapshot golden, actual;
    golden.counters["g.same"] = 5;
    golden.counters["g.drift"] = 100;
    golden.counters["g.gone"] = 1;
    golden.scalars["g.close"] = 1.0;
    actual.counters["g.same"] = 5;
    actual.counters["g.drift"] = 101;
    actual.counters["g.new"] = 9;
    actual.scalars["g.close"] = 1.0 + 1e-12; // inside 1e-9 rel tol

    auto diffs = diffSnapshots(golden, actual);
    ASSERT_EQ(diffs.size(), 3u);
    // Map order: drift < gone < new.
    EXPECT_EQ(diffs[0].key, "g.drift");
    EXPECT_EQ(diffs[0].kind, "drift");
    EXPECT_EQ(diffs[1].key, "g.gone");
    EXPECT_EQ(diffs[1].kind, "missing");
    EXPECT_EQ(diffs[2].key, "g.new");
    EXPECT_EQ(diffs[2].kind, "extra");

    EXPECT_FALSE(formatDiffs(diffs).empty());
}
