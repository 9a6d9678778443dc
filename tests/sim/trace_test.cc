/**
 * @file
 * Unit tests for the event tracer: ring/drop accounting, arming,
 * and well-formedness of the exported Chrome trace-event JSON
 * (parsed back with the in-tree JSON reader).
 */

#include <gtest/gtest.h>
#include <unistd.h>

#include <fstream>
#include <map>
#include <sstream>
#include <utility>

#include "sim/domain.hh"
#include "sim/json.hh"
#include "sim/trace.hh"

using namespace dpu::sim;

namespace {

/** Fixture that leaves the process-wide tracer clean afterwards. */
class TraceTest : public ::testing::Test
{
  protected:
    void
    TearDown() override
    {
        tracer().disarm();
        tracer().clear();
    }

    /** Export, parse, and return the traceEvents array. */
    const json::Value &
    exportEvents()
    {
        static const json::Value empty;
        std::ostringstream os;
        tracer().exportJson(os);
        std::string err;
        if (!json::parse(os.str(), doc, err)) {
            ADD_FAILURE() << "trace JSON does not parse: " << err;
            return empty;
        }
        const json::Value *ev = doc.find("traceEvents");
        if (!ev || ev->kind != json::Value::Kind::Array) {
            ADD_FAILURE() << "missing traceEvents array";
            return empty;
        }
        return *ev;
    }

    json::Value doc;
};

std::string
str(const json::Value &obj, const char *key)
{
    const json::Value *v = obj.find(key);
    return v && v->kind == json::Value::Kind::String ? v->s
                                                     : std::string();
}

/** This process's resident set in bytes, or -1 where unreadable. */
long long
residentBytes()
{
    std::ifstream statm("/proc/self/statm");
    long long pages = 0, resident = 0;
    if (!(statm >> pages >> resident))
        return -1;
    return resident * sysconf(_SC_PAGESIZE);
}

} // namespace

TEST_F(TraceTest, DisarmedRecordIsANoOp)
{
    ASSERT_FALSE(tracer().armed());
    DPU_TRACE_INSTANT(TraceCat::Core, 0, "ignored", 10, nullptr, 0);
    EXPECT_EQ(tracer().size(), 0u);
}

TEST_F(TraceTest, RingOverwritesOldestAndCountsDrops)
{
    tracer().arm(4);
    for (int i = 0; i < 6; ++i)
        DPU_TRACE_INSTANT(TraceCat::Core, 0, "tick", Tick(i), "n",
                          std::uint64_t(i));
    EXPECT_EQ(tracer().size(), 4u);
    EXPECT_EQ(tracer().dropped(), 2u);

    // Export must contain only the newest four records (ts 2..5).
    const json::Value &events = exportEvents();
    std::vector<double> ts;
    for (const auto &e : events.arr)
        if (str(e, "ph") == "i")
            ts.push_back(e.find("ts")->asDouble() * 1e6); // us -> ps
    ASSERT_EQ(ts.size(), 4u);
    EXPECT_DOUBLE_EQ(ts.front(), 2.0);
    EXPECT_DOUBLE_EQ(ts.back(), 5.0);

    tracer().clear();
    EXPECT_EQ(tracer().size(), 0u);
    EXPECT_EQ(tracer().dropped(), 0u);
}

TEST_F(TraceTest, ArmingHoldsOnlyTheRecordsWritten)
{
    // A ring grows with what it records: arming 8 domains at the
    // default capacity (72 MB each, once full) commits almost no
    // memory, and domain d then holds exactly its d + 1 records.
    constexpr unsigned nd = 8;
    tracer().ensureDomains(nd);
    const long long before = residentBytes();
    tracer().arm();
    const long long after = residentBytes();
    if (before >= 0 && after >= 0) {
        EXPECT_LT(after - before, 16ll << 20);
    }

    for (unsigned d = 0; d < nd; ++d) {
        DomainScope ds(d);
        for (unsigned i = 0; i <= d; ++i)
            DPU_TRACE_INSTANT(TraceCat::Core, d, "r", Tick(i), "n", d);
    }
    EXPECT_EQ(tracer().size(), nd * (nd + 1) / 2);
    EXPECT_EQ(tracer().dropped(), 0u);
    std::map<std::uint64_t, unsigned> perDomain;
    for (const auto &e : exportEvents().arr)
        if (str(e, "ph") == "i")
            ++perDomain[e.find("args")->find("n")->asU64()];
    ASSERT_EQ(perDomain.size(), nd);
    for (unsigned d = 0; d < nd; ++d)
        EXPECT_EQ(perDomain[d], d + 1) << "domain " << d;
}

TEST_F(TraceTest, DisarmStopsRecordingButKeepsRing)
{
    tracer().arm(16);
    DPU_TRACE_INSTANT(TraceCat::Core, 0, "kept", 1, nullptr, 0);
    tracer().disarm();
    DPU_TRACE_INSTANT(TraceCat::Core, 0, "lost", 2, nullptr, 0);
    EXPECT_EQ(tracer().size(), 1u);
}

TEST_F(TraceTest, SpanIdsAreUniqueAndNonZero)
{
    std::uint64_t a = tracer().nextId();
    std::uint64_t b = tracer().nextId();
    EXPECT_NE(a, 0u);
    EXPECT_NE(b, 0u);
    EXPECT_NE(a, b);
}

TEST_F(TraceTest, ExportedJsonIsWellFormed)
{
    tracer().arm(256);
    tracer().nameTrack(TraceCat::Dms, 7, "dmad7");

    // Two overlapping async spans on one track, an 'X', an instant
    // and a counter — deliberately recorded out of timestamp order
    // to exercise the exporter's sort.
    std::uint64_t s1 = tracer().nextId();
    std::uint64_t s2 = tracer().nextId();
    DPU_TRACE_SPAN_BEGIN(TraceCat::Dms, 7, "DdrToDmem", s1, 100,
                         "bytes", 1024, nullptr, 0);
    DPU_TRACE_SPAN_BEGIN(TraceCat::Dms, 7, "DdrToDmem", s2, 150,
                         "bytes", 1024, nullptr, 0);
    DPU_TRACE_SPAN_END(TraceCat::Dms, 7, "DdrToDmem", s1, 300);
    DPU_TRACE_COMPLETE(TraceCat::Ddr, 0, "read", 50, 25, "bytes", 64,
                       nullptr, 0);
    DPU_TRACE_SPAN_END(TraceCat::Dms, 7, "DdrToDmem", s2, 400);
    DPU_TRACE_INSTANT(TraceCat::Core, 3, "evSet", 120, "event", 5);
    DPU_TRACE_COUNTER(TraceCat::Ddr, 0, "rowBuffer", 200, "hits", 9,
                      "misses", 1);

    const json::Value &events = exportEvents();

    // (a) every async begin pairs with exactly one end (cat+id key),
    // and the end never precedes its begin.
    std::map<std::pair<std::string, std::uint64_t>, int> open;
    // (b) timestamps per (pid, tid) track are monotone.
    std::map<std::pair<std::uint64_t, std::uint64_t>, double> lastTs;
    bool sawThreadName = false;

    for (const auto &e : events.arr) {
        const std::string ph = str(e, "ph");
        ASSERT_FALSE(ph.empty());
        if (ph == "M") {
            if (str(e, "name") == "thread_name" &&
                e.find("tid")->asU64() == 7) {
                const json::Value *args = e.find("args");
                ASSERT_NE(args, nullptr);
                EXPECT_EQ(str(*args, "name"), "dmad7");
                sawThreadName = true;
            }
            continue;
        }
        ASSERT_NE(e.find("ts"), nullptr);
        const double ts = e.find("ts")->asDouble();
        auto track = std::make_pair(e.find("pid")->asU64(),
                                    e.find("tid")->asU64());
        auto it = lastTs.find(track);
        if (it != lastTs.end()) {
            EXPECT_GE(ts, it->second);
        }
        lastTs[track] = ts;

        if (ph == "b" || ph == "e") {
            auto key = std::make_pair(str(e, "cat"),
                                      e.find("id")->asU64());
            if (ph == "b") {
                ++open[key];
            } else {
                ASSERT_GT(open[key], 0)
                    << "'e' before matching 'b' for id " << key.second;
                --open[key];
            }
        } else if (ph == "X") {
            ASSERT_NE(e.find("dur"), nullptr);
        } else if (ph == "i") {
            EXPECT_EQ(str(e, "s"), "t");
        }
    }
    for (const auto &[key, count] : open)
        EXPECT_EQ(count, 0) << "unclosed span id " << key.second;
    EXPECT_TRUE(sawThreadName);
}

// ----------------------------------------------------------------
// Per-domain rings (the parallel board's determinism contract)
// ----------------------------------------------------------------

TEST_F(TraceTest, ExportIsIndependentOfDomainInterleaving)
{
    // The same per-domain record streams, written in two different
    // cross-domain interleavings (as different thread schedules
    // would produce), must export byte-identical JSON.
    auto emit = [](unsigned order) {
        auto d0a = [] {
            DomainScope ds(0);
            DPU_TRACE_INSTANT(TraceCat::Core, 0, "a", 10, "n", 1);
        };
        auto d0b = [] {
            DomainScope ds(0);
            DPU_TRACE_INSTANT(TraceCat::Core, 0, "b", 30, "n", 2);
        };
        auto d1a = [] {
            DomainScope ds(1);
            DPU_TRACE_INSTANT(TraceCat::Core, 40, "c", 5, "n", 3);
        };
        auto d1b = [] {
            DomainScope ds(1);
            DPU_TRACE_INSTANT(TraceCat::Core, 40, "d", 10, "n", 4);
        };
        if (order == 0) {
            d0a();
            d0b();
            d1a();
            d1b();
        } else {
            d1a();
            d0a();
            d1b();
            d0b();
        }
    };

    tracer().ensureDomains(2);
    std::string out[2];
    for (unsigned order = 0; order < 2; ++order) {
        tracer().arm(64);
        emit(order);
        std::ostringstream os;
        tracer().exportJson(os);
        out[order] = os.str();
        tracer().disarm();
        tracer().clear();
    }
    EXPECT_EQ(out[0], out[1]);

    // And the merge is (ts, domain)-ordered: d1's ts=5 record leads,
    // the ts=10 tie breaks domain 0 first.
    const std::size_t ca = out[0].find("\"name\":\"c\"");
    const std::size_t aa = out[0].find("\"name\":\"a\"");
    const std::size_t da = out[0].find("\"name\":\"d\"");
    ASSERT_NE(ca, std::string::npos);
    ASSERT_NE(aa, std::string::npos);
    ASSERT_NE(da, std::string::npos);
    EXPECT_LT(ca, aa);
    EXPECT_LT(aa, da);
}

TEST_F(TraceTest, IdStreamsArePerDomainAndRestartOnArm)
{
    tracer().ensureDomains(3);
    tracer().arm(64);
    EXPECT_EQ(tracer().nextId(), 1u);
    {
        DomainScope ds(2);
        EXPECT_EQ(tracer().nextId(), (2ull << 32) | 1u);
        EXPECT_EQ(tracer().nextId(), (2ull << 32) | 2u);
    }
    // Domain 2's ids never perturbed domain 0's stream.
    EXPECT_EQ(tracer().nextId(), 2u);

    // Re-arming restarts every stream: two runs in one process
    // export identical ids (the cross-run determinism contract).
    tracer().disarm();
    tracer().clear();
    tracer().arm(64);
    EXPECT_EQ(tracer().nextId(), 1u);
    DomainScope ds(2);
    EXPECT_EQ(tracer().nextId(), (2ull << 32) | 1u);
}

TEST_F(TraceTest, IdsOfDomainsPast255DoNotCollide)
{
    // A 512-DPU board sizes the tracer for 512 domains. With the
    // domain in an id's top byte, domain 256 drew domain 0's ids.
    tracer().ensureDomains(257);
    tracer().arm(4);
    const std::uint64_t first = tracer().nextId();
    DomainScope ds(256);
    EXPECT_NE(tracer().nextId(), first);
}

TEST_F(TraceTest, DropAccountingIsPerDomain)
{
    tracer().ensureDomains(2);
    tracer().arm(4);
    for (unsigned i = 0; i < 6; ++i)
        DPU_TRACE_INSTANT(TraceCat::Core, 0, "d0", Tick(i), "n", i);
    {
        DomainScope ds(1);
        for (unsigned i = 0; i < 3; ++i)
            DPU_TRACE_INSTANT(TraceCat::Core, 1, "d1", Tick(i), "n",
                              i);
    }
    // Domain 0 overflowed (6 > 4) and dropped 2; domain 1 did not.
    EXPECT_EQ(tracer().size(), 4u + 3u);
    EXPECT_EQ(tracer().dropped(), 2u);
}
