/**
 * @file
 * SummaryFold unit tests (host/summary.hh): the two accounting
 * bugs the shared fold fixed must stay fixed — availability is
 * submitted-weighted (an idle replica cannot dilute a hot shard's
 * outage) and a single-tick completion window reports its
 * throughput instead of zero — plus the nearest-rank percentile
 * helper and the basic count/latency folding laws.
 */

#include <gtest/gtest.h>

#include <numeric>
#include <utility>
#include <vector>

#include "host/summary.hh"

using namespace dpu;
using host::JobRecord;
using host::JobState;
using host::ServingSummary;
using host::SummaryFold;

namespace {

ServingSummary
part(std::uint64_t submitted, double availability)
{
    ServingSummary s;
    s.submitted = submitted;
    s.accepted = submitted;
    s.availability = availability;
    return s;
}

JobRecord
completedJob(sim::Tick enq, sim::Tick fin)
{
    JobRecord r;
    r.state = JobState::Completed;
    r.enqueuedAt = enq;
    r.finishedAt = fin;
    return r;
}

} // namespace

TEST(Percentile, NearestRankOverASortedSample)
{
    const std::vector<double> s = {1, 2, 3, 4};
    EXPECT_DOUBLE_EQ(host::percentileOf(s, 0.50), 2.0);
    EXPECT_DOUBLE_EQ(host::percentileOf(s, 0.99), 4.0);
    EXPECT_DOUBLE_EQ(host::percentileOf(s, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(host::percentileOf({}, 0.5), 0.0);
    EXPECT_DOUBLE_EQ(host::percentileOf({7.0}, 0.99), 7.0);

    // Rank ceil(q * n): p95 of 12 samples is the 12th (11.4 rounds
    // up) and of 31 samples the 30th (29.45 rounds up).
    const std::pair<unsigned, double> p95[] = {{12, 12.0}, {31, 30.0}};
    for (const auto &[n, want] : p95) {
        std::vector<double> ranks(n);
        std::iota(ranks.begin(), ranks.end(), 1.0);
        EXPECT_DOUBLE_EQ(host::percentileOf(ranks, 0.95), want)
            << n << " samples";
    }
}

TEST(SummaryFold, AvailabilityIsWeightedBySubmittedTraffic)
{
    // A hot shard that served 90% of the traffic at availability
    // 0.5 next to an idle-but-healthy replica: the unweighted mean
    // would read 0.75, flattering the outage 1:1 with a shard that
    // served almost nothing.
    SummaryFold fold;
    fold.add(part(90, 0.5), {});
    fold.add(part(10, 1.0), {});
    const ServingSummary out = fold.finish();
    EXPECT_EQ(out.submitted, 100u);
    EXPECT_DOUBLE_EQ(out.availability, 0.55);
}

TEST(SummaryFold, IdleShardsCannotVoteAtAll)
{
    SummaryFold fold;
    fold.add(part(50, 0.2), {});
    fold.add(part(0, 1.0), {}); // idle: no vote
    EXPECT_DOUBLE_EQ(fold.finish().availability, 0.2);
}

TEST(SummaryFold, AllIdleFallsBackToThePlainMean)
{
    // Zero traffic anywhere: weighted division would be 0/0, so
    // the fold reads the shards' own idea of health unweighted.
    SummaryFold fold;
    fold.add(part(0, 0.25), {});
    fold.add(part(0, 0.75), {});
    EXPECT_DOUBLE_EQ(fold.finish().availability, 0.5);
}

TEST(SummaryFold, SingleTickCompletionWindowReportsThroughput)
{
    // Every completion on one tick used to trip the last > first
    // guard and report zero throughput; the window now clamps to
    // one tick (1 ps), so the rate is huge but finite and nonzero.
    SummaryFold fold;
    ServingSummary s = part(2, 1.0);
    s.completed = 2;
    fold.add(s, {completedJob(5000, 5000),
                 completedJob(5000, 5000)});
    const ServingSummary out = fold.finish();
    EXPECT_EQ(fold.firstEnqueue(), sim::Tick(5000));
    EXPECT_EQ(fold.lastFinish(), sim::Tick(5000));
    EXPECT_DOUBLE_EQ(out.throughputJobsPerSec, 2.0 / 1e-12);
}

TEST(SummaryFold, CountsSumAndLatenciesFoldAcrossParts)
{
    SummaryFold fold;
    ServingSummary a = part(3, 1.0);
    a.completed = 2;
    a.timedOut = 1;
    ServingSummary b = part(1, 1.0);
    b.completed = 1;
    // Latencies 1 us, 3 us from shard a; 2 us from shard b.
    fold.add(a, {completedJob(0, 1'000'000),
                 completedJob(0, 3'000'000)});
    fold.add(b, {completedJob(1'000'000, 3'000'000)});
    const ServingSummary out = fold.finish();
    EXPECT_EQ(out.submitted, 4u);
    EXPECT_EQ(out.completed, 3u);
    EXPECT_EQ(out.timedOut, 1u);
    EXPECT_DOUBLE_EQ(out.meanUs, 2.0);
    EXPECT_DOUBLE_EQ(out.maxUs, 3.0);
    EXPECT_DOUBLE_EQ(out.p50Us, 2.0);
    // Window spans the earliest enqueue to the latest finish
    // across shards: 3 completions over 3 us.
    EXPECT_DOUBLE_EQ(out.throughputJobsPerSec, 3.0 / 3e-6);
}
