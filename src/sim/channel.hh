/**
 * @file
 * One store-and-forward channel: the wire law shared by the board's
 * LinkFabric (board/link.hh) and the rack's RackNet (rack/net.hh).
 *
 *   txStart  = max(now, nextFree)
 *   txDone   = txStart + max(bytes, flitBytes) x 1000 / gbPerSec
 *   delivery = txDone + hopLatency [+ delay-fault magnitude]
 *
 * A dropped send still burns its wire time (nextFree advances). The
 * owning tier names the fault sites and the channel's fault `unit`;
 * send() draws the delay site, then the drop site, against `now`.
 *
 * Accounting follows bp-forest's xfer_stat idiom, one record type
 * for every transfer: a send is counted `offered` on entry, then
 * lands in exactly one fate class — carried Workload, carried
 * Migration, carried Probe, or dropped — each with msgs, bytes and
 * wire ticks. So, for msgs and for bytes,
 *
 *   offered == carried(Workload + Migration + Probe) + dropped
 *
 * and at both tiers bytesCarried(), messages() and utilization()
 * mean carried Workload only. ChannelSet::foldStats() writes one
 * key set for every tier, each cell only once nonzero (so stat
 * snapshots keep their golden key sets): msgs/bytes (Workload),
 * migMsgs/migBytes, probeMsgs/probeBytes, drops/dropBytes, delayed,
 * and <channel>.bytes/.busyTicks for channels that carried Workload.
 */

#ifndef DPU_SIM_CHANNEL_HH
#define DPU_SIM_CHANNEL_HH

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/fault.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace dpu::sim {

/** What a send carries. */
enum class Traffic : std::uint8_t
{
    Workload,  ///< app payloads, RPCs, front-end requests
    Migration, ///< partition-state hand-offs and forwarding deltas
    Probe,     ///< health-monitor heartbeats
};

/** Messages, bytes and wire ticks of one fate class. */
struct Tally
{
    std::uint64_t msgs = 0;
    std::uint64_t bytes = 0;
    Tick ticks = 0;

    void
    add(std::uint64_t b, Tick t)
    {
        ++msgs;
        bytes += b;
        ticks += t;
    }

    Tally &operator+=(const Tally &o);
};

/** A channel's (or a whole tier's) fate-exclusive tallies. */
struct ChannelTotals
{
    std::array<Tally, 3> carried{}; ///< indexed by Traffic
    Tally dropped;
    Tally offered; ///< counted on entry, before the fate draw
    std::uint64_t delays = 0;

    const Tally &
    of(Traffic cls) const
    {
        return carried[std::size_t(cls)];
    }

    ChannelTotals &operator+=(const ChannelTotals &o);
};

/** One store-and-forward wire with fate-exclusive accounting. */
class Channel
{
  public:
    /** @p hop_latency per message, @p gb_per_sec serialization
     *  bandwidth, @p flit_bytes minimum wire occupancy. */
    Channel(Tick hop_latency, double gb_per_sec,
            std::uint32_t flit_bytes);

    /** Wire (serialization) ticks @p bytes occupy. */
    Tick serTicks(std::uint64_t bytes) const;

    /**
     * Put @p bytes of @p cls on the wire at @p now and settle the
     * send's fate from @p delay_site and @p drop_site (unit
     * @p unit). @return the delivery tick; @p dropped reports a
     * drop (wire time spent, payload lost — the caller owns
     * retries and failover).
     */
    Tick send(Tick now, std::uint64_t bytes, Traffic cls,
              FaultSite delay_site, FaultSite drop_site, int unit,
              bool &dropped);

    /** Ticks the wire is already committed past @p now. */
    Tick
    backlog(Tick now) const
    {
        return nextFree > now ? nextFree - now : 0;
    }

    const ChannelTotals &totals() const { return tally; }

  private:
    Tick hop;
    double gbPerSec;
    std::uint32_t flitBytes;
    Tick nextFree = 0;
    ChannelTotals tally;
};

/**
 * A tier's channels and the accessors every tier answers under the
 * one law. LinkFabric and RackNet derive from it and add only what
 * differs: fault sites, fault units, routing and params.
 */
class ChannelSet
{
  public:
    /** Every channel's fate-exclusive tallies, summed. */
    ChannelTotals totals() const;

    /** Workload bytes that reached their destination. */
    std::uint64_t
    bytesCarried() const
    {
        return totals().of(Traffic::Workload).bytes;
    }
    /** Workload messages that reached their destination. */
    std::uint64_t
    messages() const
    {
        return totals().of(Traffic::Workload).msgs;
    }
    /** Migration bytes delivered (hand-offs and deltas). */
    std::uint64_t
    migrationBytes() const
    {
        return totals().of(Traffic::Migration).bytes;
    }
    /** Bytes lost to a drop fault (wire time was still burned). */
    std::uint64_t droppedBytes() const { return totals().dropped.bytes; }

    /** Fraction of [0, @p end] the busiest channel spent
     *  serializing carried Workload (0 when @p end is 0). */
    double peakUtilization(Tick end) const;

  protected:
    /** @p n channels of one timing. */
    ChannelSet(std::size_t n, Tick hop_latency, double gb_per_sec,
               std::uint32_t flit_bytes);

    /** Write the channels into @p g under the one key set in the
     *  file comment. @p name(i) is channel i's cell prefix. */
    void foldStats(StatGroup &g,
                   const std::function<std::string(std::size_t)> &name)
        const;

    std::vector<Channel> chans;
};

} // namespace dpu::sim

#endif // DPU_SIM_CHANNEL_HH
