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
 * Migration, carried Probe, or dropped — each with msgs and bytes.
 * So, for msgs and for bytes,
 *
 *   offered == carried(Workload + Migration + Probe) + dropped
 *
 * and at both tiers bytesCarried(), messages() and utilization()
 * mean carried Workload only. The counters are the record: every
 * tier's group (ChannelSet::statGroup()) holds one key set,
 *  - msgs/bytes (Workload), migMsgs/migBytes, probeMsgs/probeBytes,
 *    drops/dropBytes and delayed, counted in one row per source
 *    (ChannelRow), each row written only by its source's thread;
 *  - <channel>.bytes/.busyTicks, each channel's own carried
 *    Workload bytes and wire ticks;
 * each cell appearing at its first count. Only the offered tally
 * behind the conservation law is a plain field.
 */

#ifndef DPU_SIM_CHANNEL_HH
#define DPU_SIM_CHANNEL_HH

#include <array>
#include <cstdint>
#include <deque>

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

/** Messages and bytes of one fate class. */
struct Tally
{
    std::uint64_t msgs = 0;
    std::uint64_t bytes = 0;

    Tally &
    operator+=(const Tally &o)
    {
        msgs += o.msgs;
        bytes += o.bytes;
        return *this;
    }
};

/** A tier's fate-exclusive tallies, read from its counters. */
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
};

/** One source's counters in its tier's group: msgs and bytes per
 *  fate class, and delay firings. */
struct ChannelRow
{
    /** A fate class's msgs and bytes cells. */
    struct Fate
    {
        Counter msgs;
        Counter bytes;

        void
        add(std::uint64_t b)
        {
            ++msgs;
            bytes += b;
        }

        Tally
        read() const
        {
            return {msgs.value(), bytes.value()};
        }
    };

    explicit ChannelRow(StatGroup &g);

    std::array<Fate, 3> carried; ///< indexed by Traffic
    Fate dropped;
    Counter delayed;
};

/** One store-and-forward wire with fate-exclusive accounting. */
class Channel
{
  public:
    /** Longest cell prefix a channel keeps, with its terminator. */
    static constexpr std::size_t nameBytes = 16;

    /** @p hop_latency per message, @p gb_per_sec serialization
     *  bandwidth, @p flit_bytes minimum wire occupancy. Counts into
     *  source row @p row and into @p g's cells "<@p name>.bytes"
     *  and "<@p name>.busyTicks" (@p name is copied). */
    Channel(Tick hop_latency, double gb_per_sec,
            std::uint32_t flit_bytes, StatGroup &g, ChannelRow &row,
            const char *name);

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

    /** Sends counted on entry, before the fate draw. */
    const Tally &offered() const { return offeredTally; }

    /** Wire ticks spent serializing carried Workload. */
    Tick busyTicks() const { return busy.value(); }

  private:
    Tick hop;
    double gbPerSec;
    std::uint32_t flitBytes;
    char prefix[nameBytes];
    Tick nextFree = 0;
    Tally offeredTally;
    ChannelRow &row;
    Counter workloadBytes;
    Counter busy;
};

/**
 * A tier's channels, its stat group, and the accessors every tier
 * answers under the one law. LinkFabric and RackNet derive from it
 * and add only what differs: fault sites, fault units, routing and
 * params.
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

    /** Channel @p i, in the tier's own order. */
    const Channel &channel(std::size_t i) const { return chans[i]; }

    StatGroup &statGroup() { return stats; }

  protected:
    /** Group @p group_name with @p n_rows source rows; the derived
     *  tier adds its channels. */
    ChannelSet(const char *group_name, std::size_t n_rows);

    StatGroup stats;
    std::deque<ChannelRow> rows;
    std::deque<Channel> chans;
};

// A channel, with the group entries of its two counters, stays
// within 160 bytes of host memory: a board holds n^2 of them.
static_assert(sizeof(Channel) + 2 * StatGroup::entryBytes <= 160);

} // namespace dpu::sim

#endif // DPU_SIM_CHANNEL_HH
