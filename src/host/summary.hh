/**
 * @file
 * Shared serving-summary aggregation.
 *
 * Three users fold job records into one ServingSummary:
 * OffloadScheduler over one shard's jobs, and BoardScheduler and
 * rack::RackScheduler over N per-shard parts. The board and rack
 * used to carry private near-copies of the same loop — with the
 * same two accounting bugs: availability was an unweighted mean over
 * shards (an idle replica's perfect 1.0 diluted a struggling hot
 * shard's outage 1:1 regardless of traffic) and the `last > first`
 * window guard reported zero throughput whenever every completion
 * landed on a single tick. SummaryFold is the one implementation:
 *
 *  - counts are summed;
 *  - availability is weighted by each part's submitted jobs, so a
 *    shard that served nothing cannot vote (zero traffic anywhere
 *    falls back to the unweighted mean);
 *  - latency percentiles are recomputed nearest-rank, rank
 *    ⌈q·n⌉ of the n completed jobs across all parts;
 *  - throughput spans first-enqueue..last-finish, clamped to one
 *    tick so a degenerate single-tick run reports its completions
 *    instead of zero.
 */

#ifndef DPU_HOST_SUMMARY_HH
#define DPU_HOST_SUMMARY_HH

#include <deque>
#include <vector>

#include "host/offload.hh"

namespace dpu::host {

/** Nearest-rank percentile of an ascending-sorted sample: the
 *  ⌈q·n⌉-th smallest of its n values (the smallest for q = 0). */
double percentileOf(const std::vector<double> &sorted, double q);

/** Accumulates per-shard summaries; finish() yields the fold. */
class SummaryFold
{
  public:
    /** Fold in one shard's summary and its job records. */
    void add(const ServingSummary &part,
             const std::deque<JobRecord> &jobs);

    /** The aggregate over every add() so far. Sorts the folded
     *  latencies in place, so a later add() and finish() still
     *  fold every part. */
    ServingSummary finish();

    /** Earliest enqueue across all folded job records. */
    sim::Tick firstEnqueue() const { return first; }
    /** Latest finish across all folded job records. */
    sim::Tick lastFinish() const { return last; }

  private:
    ServingSummary agg;
    std::vector<double> lat; ///< completed-job latencies (us)
    sim::Tick first = ~sim::Tick(0);
    sim::Tick last = 0;
    double availWeighted = 0; ///< sum of availability * submitted
    double availUnweighted = 0;
    std::uint64_t submittedTotal = 0;
    unsigned parts = 0;
};

} // namespace dpu::host

#endif // DPU_HOST_SUMMARY_HH
