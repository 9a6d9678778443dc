/**
 * @file
 * Inter-DPU link fabric timing model.
 *
 * A board carries N DPUs connected pairwise by full-duplex
 * serial links (think PCIe/Interlaken lanes off each chip's A9
 * complex). The fabric models each ordered (src, dst) pair as an
 * independent sim::Channel — the store-and-forward wire the rack
 * network uses too (sim/channel.hh has its timing and accounting
 * law) — so concurrent messages on one channel serialize while
 * opposite directions and disjoint pairs proceed in parallel. Two
 * kinds of message share the channels:
 *
 *  - RPCs: pointer-sized control messages (ATE-style doorbells)
 *    delivered to a per-DPU handler;
 *  - bulk transfers: DMS-descriptor-sized payloads between DDR
 *    spaces; the fabric only models the wire time and invokes the
 *    caller's delivery hook, which performs the byte copy
 *    (board::Board::dma composes the two).
 *
 * Parallel execution. Every DPU owns its own sim::EventQueue
 * partition (board::Board runs them under a sim::EpochRunner), so
 * the fabric never schedules into another chip's queue directly.
 * A send runs entirely on the source chip — channel occupancy,
 * fault decisions and the delivery tick are all computed
 * synchronously against the source clock — and the delivery is
 * parked in the per-(src, dst) epoch mailbox. At each epoch barrier
 * the runner calls drainInbound(dst) on the thread that owns dst,
 * which schedules every parked delivery into dst's queue in
 * deterministic (src, send order) sequence. Because the runner's
 * lookahead is linkHopLatency, a delivery tick is always at or
 * beyond the end of the epoch that produced it, so the receiving
 * clock has never passed it. That makes the parallel schedule a
 * pure function of the simulated traffic: any thread count yields
 * bit-identical stats, traces and memory images.
 *
 * Faults ride the process-wide plane (sim/fault.hh): `link.drop`
 * loses a message after it burned its wire time (RPCs vanish, bulk
 * deliveries are lost so the sender retries), `link.delay` adds
 * `mag` ticks to one delivery. The fault `unit` of a channel is
 * src * nDpus + dst; decisions draw from the SOURCE chip's domain
 * stream (the fabric enters DomainScope(src) for the decision), so
 * they too are independent of thread interleaving.
 *
 * Everything lands in the "link" StatGroup under the channel key
 * set, with per-channel cells named "ch<src>to<dst>". The channels
 * are owned by the source thread and folded in a flush hook, so
 * parallel partitions never touch the shared map.
 */

#ifndef DPU_BOARD_LINK_HH
#define DPU_BOARD_LINK_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/channel.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"

namespace dpu::board {

// Link timing: a modest 12 GB/s board link.
/** Propagation + SerDes + endpoint turnaround per message; also the
 *  board's epoch lookahead. */
constexpr sim::Tick linkHopLatency = sim::Tick(600'000); // 600 ns
/** Per-direction serialization bandwidth. */
constexpr double linkGbPerSec = 12.0;
/** Minimum wire occupancy per message (header flit). */
constexpr std::uint32_t linkFlitBytes = 64;

/** The board's N x N channel matrix; channel src * n + dst is the
 *  ordered (src, dst) link, owned by src's thread. */
class LinkFabric : public sim::ChannelSet
{
  public:
    /** Per-DPU RPC delivery hook: (source DPU, payload). */
    using RpcHandler =
        std::function<void(unsigned src, std::uint64_t payload)>;
    /** Bulk delivery hook: ok=false means the link dropped it. */
    using BulkHandler = std::function<void(bool ok)>;

    explicit LinkFabric(unsigned n_dpus);

    unsigned size() const { return n; }

    /** Bind DPU @p dpu's event-queue partition (host phase). */
    void attach(unsigned dpu, sim::EventQueue &q);

    /** Install DPU @p dst's RPC handler (replaces any previous). */
    void onRpc(unsigned dst, RpcHandler handler);

    /**
     * Post a pointer-sized RPC from DPU @p src to DPU @p dst. A
     * dropped RPC vanishes (senders needing reliability must
     * timeout and retry, as with ATE messages). Runs on the source
     * chip; delivery is parked until drainInbound(dst).
     */
    void sendRpc(unsigned src, unsigned dst, std::uint64_t payload);

    /**
     * Occupy the (src, dst) channel with @p bytes of payload and
     * decide the message's fate now, against the source clock, in
     * the source's fault domain.
     * @return the delivery tick; @p dropped reports a link.drop
     * (wire time spent, payload lost — the caller owns retries).
     * @p cls attributes the bytes: workload vs the balancer's
     * migration chunks and deltas.
     */
    sim::Tick startBulk(unsigned src, unsigned dst,
                        std::uint64_t bytes, bool &dropped,
                        sim::Traffic cls = sim::Traffic::Workload);

    /**
     * Park @p fn in the (src, dst) mailbox for execution on DPU
     * @p dst's queue at tick @p when (a delivery tick returned by
     * startBulk). Drained at the next epoch barrier.
     */
    void postDelivery(unsigned src, unsigned dst, sim::Tick when,
                      std::function<void()> fn);

    /**
     * Schedule every parked delivery bound for @p dst into dst's
     * queue, sources in ascending order, each channel in send
     * order. Called by the epoch runner on the thread owning dst
     * (and by hand after host-phase sends in tests).
     */
    void drainInbound(unsigned dst);

    /** Fraction of simulated time the (src, dst) channel spent
     *  serializing (0 when the clock has not advanced). */
    double utilization(unsigned src, unsigned dst) const;

    /** Busiest channel's utilization — the scaling bottleneck. */
    double peakUtilization() const;

    sim::StatGroup &statGroup() { return stats; }

  private:
    /** One parked delivery: an RPC payload or a bulk action. */
    struct Pending
    {
        sim::Tick when = 0;
        std::uint64_t payload = 0;
        std::function<void()> fn; ///< non-empty = bulk delivery
    };

    unsigned n;
    std::vector<sim::EventQueue *> queues;
    /** Epoch mailboxes, indexed src * n + dst. A mailbox is written
     *  by src's thread in the compute phase and read by dst's thread
     *  in the drain phase; the runner's barriers order the two. */
    std::vector<std::vector<Pending>> inbox;
    std::vector<RpcHandler> handlers;
    /** Per-dst count of RPCs delivered with no handler installed. */
    std::vector<std::uint64_t> unhandled;
    sim::StatGroup stats;
};

} // namespace dpu::board

#endif // DPU_BOARD_LINK_HH
