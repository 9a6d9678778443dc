/**
 * @file
 * Inter-board rack network timing model.
 *
 * The paper's deployment put 500+ DPUs behind an Infiniband fabric
 * (Section 6); a rack here is N boards fed by one front-end over a
 * network that is slower and fatter-grained than the intra-board
 * LinkFabric: a few microseconds of stack+switch latency per
 * message instead of 600 ns, and a per-board ingress pipe instead
 * of an all-pairs channel matrix.
 *
 * The model is intentionally host-phase only. Rack routing is
 * static — every request's destination board and delivery tick are
 * decided at enqueue time, before any board simulates a single
 * event — so the network never needs to schedule into a board's
 * event-queue partitions. Each board has one ingress sim::Channel,
 * the same store-and-forward wire as the board links (sim/channel.hh
 * has the timing and accounting law), so a burst aimed at one board
 * queues behind itself while other boards' ingress pipes stay clear.
 * Because delivery ticks are computed in admission order in the host
 * phase, the whole rack schedule stays a pure function of the trace:
 * bit-identical at any --threads count.
 *
 * Faults ride the process-wide plane (sim/fault.hh), domain 0 —
 * admission runs in the host phase, in a fixed order, so the
 * decisions replay exactly: `rack.netDrop` loses a request after
 * it burned its wire time (the scheduler fails over to the next
 * replica), `rack.netDelay` adds `mag` ticks to one delivery. The
 * fault `unit` is the destination board.
 *
 * Everything lands in the "racknet" StatGroup under the channel key
 * set, with per-board cells named "board<b>" and one counter row
 * for the host phase that sends. Partition hand-offs
 * and forwarding deltas travel as sim::Traffic::Migration and
 * heartbeats as sim::Traffic::Probe, so bytesCarried(), messages()
 * and peakUtilization() (all from sim::ChannelSet) describe request
 * traffic alone.
 */

#ifndef DPU_RACK_NET_HH
#define DPU_RACK_NET_HH

#include <cstdint>

#include "sim/channel.hh"
#include "sim/types.hh"

namespace dpu::rack {

// Rack network timing: a 4 GB/s ingress pipe per board behind
// ~5 us of fabric + stack latency.
/** Switch traversal + NIC + software stack per message. */
constexpr sim::Tick netHopLatency = sim::Tick(5'000'000); // 5 us
/** Per-board ingress serialization bandwidth. */
constexpr double netGbPerSec = 4.0;
/** Minimum wire occupancy per message (header + RDMA setup). */
constexpr std::uint32_t netFlitBytes = 256;

/** N per-board ingress channels behind one front-end; channel b
 *  is board b's ingress pipe. */
class RackNet : public sim::ChannelSet
{
  public:
    explicit RackNet(unsigned n_boards);

    unsigned size() const { return unsigned(chans.size()); }

    /**
     * Carry @p bytes of @p cls traffic to board @p dst, arriving
     * at the front-end at tick @p now. @return the delivery tick
     * at the board's host; @p dropped reports a rack.netDrop
     * firing (wire time spent, payload lost — the caller owns
     * failover / migration abort). Host-phase only. Calls should
     * come in roughly nondecreasing @p now order; locally
     * out-of-order sends (e.g. failover-penalty retries landing
     * behind later arrivals) are tolerated — tx starts at
     * max(now, nextFree), so the channel never rewinds.
     */
    sim::Tick deliver(unsigned dst, std::uint64_t bytes,
                      sim::Tick now, bool &dropped,
                      sim::Traffic cls = sim::Traffic::Workload);

    /**
     * Ticks the board @p dst ingress pipe is already committed
     * past @p now (queued serialization of earlier messages). The
     * brown-out controller uses it to predict a request's delivery
     * delay from observable front-end state.
     */
    sim::Tick backlog(unsigned dst, sim::Tick now) const;

    /** Wire (serialization) ticks @p bytes would occupy. */
    sim::Tick wireTicks(std::uint64_t bytes) const
    {
        return chans[0].serTicks(bytes);
    }
};

} // namespace dpu::rack

#endif // DPU_RACK_NET_HH
