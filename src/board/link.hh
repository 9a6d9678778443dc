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
 * opposite directions and disjoint pairs proceed in parallel. Every
 * message is one send(): some bytes on the wire and a closure that
 * runs on the destination chip at the delivery tick — an ATE-style
 * doorbell, or the byte copy of a DMS-descriptor-sized bulk transfer
 * (board::Board::dma snapshots the payload and sends that copy).
 *
 * Parallel execution. Every DPU owns its own sim::EventQueue
 * partition under the board's sim::EpochRunner, so the fabric never
 * schedules into another chip's queue directly. A send runs entirely
 * on the source chip — channel occupancy, fault decisions and the
 * delivery tick are all computed synchronously against the source
 * clock — and the delivery is posted to the runner, which parks it
 * in the source chip's outbox and schedules it on the destination
 * at the next epoch barrier (sim/parallel.hh). Because the runner's
 * lookahead is linkHopLatency, a delivery tick is always at or
 * beyond the end of the epoch that produced it, so the receiving
 * clock has never passed it. That makes the parallel schedule a
 * pure function of the simulated traffic: any thread count yields
 * bit-identical stats, traces and memory images.
 *
 * Faults ride the process-wide plane (sim/fault.hh): `link.drop`
 * loses a message after it burned its wire time (the closure never
 * runs; senders needing reliability retry, as Board::dma does),
 * `link.delay` adds `mag` ticks to one delivery. The fault `unit` of
 * a channel is src * nDpus + dst; decisions draw from the SOURCE
 * chip's domain stream (the fabric enters DomainScope(src) for the
 * decision), so they too are independent of thread interleaving.
 *
 * Everything lands in the "link" StatGroup under the channel key
 * set, with per-channel cells named "ch<src>to<dst>". Source chip
 * s's channels and counter row are written only on s's thread, and
 * the group reads them live, so parallel partitions share no
 * counter.
 */

#ifndef DPU_BOARD_LINK_HH
#define DPU_BOARD_LINK_HH

#include <cstdint>

#include "sim/channel.hh"
#include "sim/event_queue.hh"
#include "sim/parallel.hh"

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
 *  ordered (src, dst) link, owned by src's thread, and counter row
 *  src is src's. */
class LinkFabric : public sim::ChannelSet
{
  public:
    /** One endpoint per partition of @p runner. */
    explicit LinkFabric(sim::EpochRunner &runner);

    /**
     * Put @p bytes of @p cls on the (src, dst) channel and decide
     * the message's fate now, against the source clock, in the
     * source's fault domain. Unless the link drops it (@p dropped:
     * wire time spent, payload lost — the caller owns retries),
     * @p fn runs on DPU @p dst at the returned delivery tick. Runs
     * on the source chip: from its events or the host phase.
     */
    sim::Tick send(unsigned src, unsigned dst, std::uint64_t bytes,
                   sim::Traffic cls, sim::EventQueue::Callback fn,
                   bool &dropped);

    /** Fraction of simulated time the (src, dst) channel spent
     *  serializing (0 when the clock has not advanced). */
    double utilization(unsigned src, unsigned dst) const;

    /** Busiest channel's utilization — the scaling bottleneck. */
    double peakUtilization() const;

  private:
    sim::EpochRunner &runner;
    unsigned n;
};

} // namespace dpu::board

#endif // DPU_BOARD_LINK_HH
