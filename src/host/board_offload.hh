/**
 * @file
 * Board-level sharded offload scheduling.
 *
 * One OffloadScheduler per DPU (each with its chip's own A9 and its
 * own admission queue, quarantine and availability accounting). A
 * request without a key goes to the DPU its app name and seed hash
 * to (host/router.hh), so its home DPU is a pure function of the
 * request; a keyed offer() goes to its partition's home in the
 * board's PartitionMap.
 *
 * Routing is static for a request (decided at enqueue time, before
 * the segment that serves it runs): a request never migrates
 * between DPUs mid-flight, which keeps the board bit-deterministic
 * and mirrors how a front-end proxy shards by connection. Per-DPU
 * failure handling (reaping, quarantine, retries) still applies
 * locally; summary() aggregates the per-shard outcomes into one
 * board-wide ServingSummary with recomputed percentiles.
 *
 * Live re-sharding (the topology's boardBalance with window > 0)
 * layers the board balancer on top: keyed requests enter through
 * offer(), which buffers them host-side; run() then drives the
 * board in window-sized segments, forwarding each window's offers
 * to their partition's CURRENT home DPU (the shards are held open
 * between segments), and calling the balancer at every boundary so
 * it can harvest, plan and launch migrations executed inside the
 * next segments. A commit flips exactly one partition in the
 * board's PartitionMap — requests offered before the flip drain at
 * the old home (the forwarding epoch), requests after it route to
 * the new one. All host-phase, so any --threads count produces the
 * same board, bit for bit.
 */

#ifndef DPU_HOST_BOARD_OFFLOAD_HH
#define DPU_HOST_BOARD_OFFLOAD_HH

#include <deque>
#include <memory>
#include <vector>

#include "board/balance.hh"
#include "board/board.hh"
#include "host/offload.hh"
#include "host/router.hh"

namespace dpu::host {

/** N per-DPU offload schedulers behind one hash router. */
class BoardScheduler
{
  public:
    /**
     * @p per_dpu.statName becomes the per-shard stat prefix: shard
     * d's scheduler group is "<statName>.dpu<d>" (the default
     * "sched" gives "sched.dpu<d>"; a rack passes "sched.b<b>" so
     * that its boards' shards keep distinct names).
     */
    BoardScheduler(board::Board &b, OffloadParams per_dpu,
                   std::unique_ptr<Router> router);
    /** The balancer holds a reference to the partition map, so a
     *  scheduler stays where it was built. */
    BoardScheduler(const BoardScheduler &) = delete;
    BoardScheduler &operator=(const BoardScheduler &) = delete;

    unsigned nShards() const { return unsigned(shards.size()); }
    OffloadScheduler &shard(unsigned d) { return *shards[d]; }
    const OffloadScheduler &shard(unsigned d) const
    {
        return *shards[d];
    }

    /** The shard @p req routes to. */
    unsigned route(const JobRequest &req) const;

    /** Open-loop arrival on the shard route() picks. */
    void enqueueAt(sim::Tick when, JobRequest req);

    /** Start every shard's workers and host driver loop; then run
     *  the board. */
    void start();

    // ------------------------------------------------------------
    // Keyed serving + live re-sharding
    // ------------------------------------------------------------

    /** @p key's partition: key mod the board's
     *  BalanceParams::keyPartitions. */
    unsigned partitionOf(std::uint64_t key) const;

    /**
     * Buffer a keyed open-loop arrival for run(). The request is
     * routed at segment-forwarding time (not now), so it observes
     * every partition flip committed before its window. Must be
     * called before run(); offers may arrive in any order. run()
     * moves each offer on to its shard and frees it there.
     */
    void offer(sim::Tick when, std::uint64_t key, JobRequest req);

    /**
     * Serve every offer()ed request and run the board to
     * completion; @return the end tick. With balancing off (the
     * default window = 0) this forwards all offers up front,
     * start()s and runs — byte-identical to the static path. With
     * balancing on it drives the windowed stepped loop described
     * in the file comment.
     */
    sim::Tick run();

    /** True when the board balancer is live (balance.window > 0). */
    bool balanced() const { return balancer_ != nullptr; }

    /** The balancer (null unless balanced()). */
    board::BoardBalancer *balancer() { return balancer_.get(); }

    /** Key-partition -> DPU map used by offer(); the balancer
     *  re-homes partitions in it as migrations commit. */
    const board::PartitionMap &partitions() const { return parts; }

    /**
     * Board-wide aggregate (valid after the board has run):
     * counts summed, availability averaged over shards, latency
     * percentiles recomputed over every completed job, throughput
     * over the board-wide first-enqueue..last-finish window.
     */
    ServingSummary summary() const;

  private:
    struct Offer
    {
        sim::Tick when = 0;
        std::uint64_t key = 0;
        JobRequest req;
    };

    board::Board &brd;
    std::unique_ptr<Router> router;
    std::vector<std::unique_ptr<OffloadScheduler>> shards;
    /** Key-partition homes; built for every board so the static
     *  and balanced paths route identically. */
    board::PartitionMap parts;
    /** Live only when the board's balance.window > 0. */
    std::unique_ptr<board::BoardBalancer> balancer_;
    /** Not yet forwarded; sorted at run(), popped as forwarded. */
    std::deque<Offer> offers;
    bool ran = false;
};

} // namespace dpu::host

#endif // DPU_HOST_BOARD_OFFLOAD_HH
