#include "sim/channel.hh"

#include <algorithm>
#include <cstring>

#include "sim/logging.hh"

namespace dpu::sim {

ChannelRow::ChannelRow(StatGroup &g)
    : carried{{{{g, "msgs"}, {g, "bytes"}},
               {{g, "migMsgs"}, {g, "migBytes"}},
               {{g, "probeMsgs"}, {g, "probeBytes"}}}},
      dropped{{g, "drops"}, {g, "dropBytes"}}, delayed(g, "delayed")
{
}

Channel::Channel(Tick hop_latency, double gb_per_sec,
                 std::uint32_t flit_bytes, StatGroup &g,
                 ChannelRow &row_, const char *name)
    : hop(hop_latency), gbPerSec(gb_per_sec), flitBytes(flit_bytes),
      row(row_), workloadBytes(g, prefix, "bytes"),
      busy(g, prefix, "busyTicks")
{
    sim_assert(gbPerSec > 0, "channel bandwidth must be positive");
    sim_assert(std::strlen(name) < nameBytes,
               "channel name '%s' is longer than %zu bytes", name,
               nameBytes - 1);
    std::strcpy(prefix, name);
}

Tick
Channel::serTicks(std::uint64_t bytes) const
{
    const double wire =
        double(std::max<std::uint64_t>(bytes, flitBytes));
    // ps per byte = 1000 / (GB/s); integer in, integer out, so the
    // timing is a reproducible function of (bytes, params).
    return Tick(wire * (1000.0 / gbPerSec) + 0.5);
}

Tick
Channel::send(Tick now, std::uint64_t bytes, Traffic cls,
              FaultSite delay_site, FaultSite drop_site, int unit,
              bool &dropped)
{
    const Tick ser = serTicks(bytes);
    const Tick tx_done = std::max(now, nextFree) + ser;
    nextFree = tx_done;
    offeredTally += {1, bytes};

    Tick extra = 0;
    std::uint64_t mag = 0;
    FaultPlane &fp = faultPlane();
    if (fp.active() && fp.fires(delay_site, now, unit, &mag)) {
        extra = mag ? Tick(mag) : hop;
        ++row.delayed;
    }
    dropped = fp.active() && fp.fires(drop_site, now, unit, &mag);

    if (dropped) {
        row.dropped.add(bytes);
    } else {
        row.carried[std::size_t(cls)].add(bytes);
        if (cls == Traffic::Workload) {
            workloadBytes += bytes;
            busy += ser;
        }
    }
    return tx_done + hop + extra;
}

ChannelSet::ChannelSet(const char *group_name, std::size_t n_rows)
    : stats(group_name)
{
    for (std::size_t r = 0; r < n_rows; ++r)
        rows.emplace_back(stats);
}

ChannelTotals
ChannelSet::totals() const
{
    ChannelTotals sum;
    for (const ChannelRow &r : rows) {
        for (std::size_t c = 0; c < sum.carried.size(); ++c)
            sum.carried[c] += r.carried[c].read();
        sum.dropped += r.dropped.read();
        sum.delays += r.delayed.value();
    }
    for (const Channel &c : chans)
        sum.offered += c.offered();
    return sum;
}

double
ChannelSet::peakUtilization(Tick end) const
{
    Tick peak = 0;
    for (const Channel &c : chans)
        peak = std::max(peak, c.busyTicks());
    return end ? double(peak) / double(end) : 0;
}

} // namespace dpu::sim
