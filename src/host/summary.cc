#include "host/summary.hh"

#include <algorithm>
#include <cmath>

namespace dpu::host {

double
percentileOf(const std::vector<double> &sorted, double q)
{
    if (sorted.empty())
        return 0;
    // Nearest rank: the smallest sample with at least q of the
    // sample at or below it, rank ceil(q * n) counted from 1.
    std::size_t rank =
        std::size_t(std::ceil(q * double(sorted.size())));
    if (rank > 0)
        --rank;
    return sorted[std::min(rank, sorted.size() - 1)];
}

void
SummaryFold::add(const ServingSummary &part,
                 const std::deque<JobRecord> &jobs)
{
    agg.submitted += part.submitted;
    agg.accepted += part.accepted;
    agg.rejected += part.rejected;
    agg.dispatched += part.dispatched;
    agg.completed += part.completed;
    agg.timedOut += part.timedOut;
    agg.validationFailed += part.validationFailed;
    agg.lateJobs += part.lateJobs;
    agg.wedgedGroups += part.wedgedGroups;
    agg.requeued += part.requeued;
    agg.quarantines += part.quarantines;
    agg.wedgeTimeouts += part.wedgeTimeouts;

    availWeighted += part.availability * double(part.submitted);
    availUnweighted += part.availability;
    submittedTotal += part.submitted;
    ++parts;

    for (const JobRecord &rec : jobs) {
        first = std::min(first, rec.enqueuedAt);
        last = std::max(last, rec.finishedAt);
        if (rec.state == JobState::Completed)
            lat.push_back(rec.latencyUs());
    }
}

ServingSummary
SummaryFold::finish()
{
    ServingSummary out = agg;

    // Traffic-weighted availability: an idle shard carries no
    // vote. With no traffic anywhere, fall back to the plain mean
    // (all shards idle and healthy reads as fully available).
    if (submittedTotal > 0)
        out.availability = availWeighted / double(submittedTotal);
    else if (parts > 0)
        out.availability = availUnweighted / double(parts);

    // The mean sums in ascending order, so it does not depend on
    // the order the parts were added in.
    std::sort(lat.begin(), lat.end());
    out.p50Us = percentileOf(lat, 0.50);
    out.p95Us = percentileOf(lat, 0.95);
    out.p99Us = percentileOf(lat, 0.99);
    if (!lat.empty()) {
        double sum = 0;
        for (double l : lat)
            sum += l;
        out.meanUs = sum / double(lat.size());
        out.maxUs = lat.back();
    }

    // first <= last whenever a completion exists (its finish tick
    // bounds `last` from below by its own enqueue). Clamp the
    // window to one tick so completions all landing on one tick
    // report a (huge) throughput instead of zero.
    if (out.completed > 0 && first != ~sim::Tick(0)) {
        const sim::Tick window =
            last > first ? last - first : sim::Tick(1);
        out.throughputJobsPerSec =
            double(out.completed) / (double(window) * 1e-12);
    }
    return out;
}

} // namespace dpu::host
