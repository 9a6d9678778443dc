#include "sim/channel.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace dpu::sim {

Tally &
Tally::operator+=(const Tally &o)
{
    msgs += o.msgs;
    bytes += o.bytes;
    ticks += o.ticks;
    return *this;
}

ChannelTotals &
ChannelTotals::operator+=(const ChannelTotals &o)
{
    for (std::size_t c = 0; c < carried.size(); ++c)
        carried[c] += o.carried[c];
    dropped += o.dropped;
    offered += o.offered;
    delays += o.delays;
    return *this;
}

Channel::Channel(Tick hop_latency, double gb_per_sec,
                 std::uint32_t flit_bytes)
    : hop(hop_latency), gbPerSec(gb_per_sec), flitBytes(flit_bytes)
{
    sim_assert(gbPerSec > 0, "channel bandwidth must be positive");
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
    tally.offered.add(bytes, ser);

    Tick extra = 0;
    std::uint64_t mag = 0;
    FaultPlane &fp = faultPlane();
    if (fp.active() && fp.fires(delay_site, now, unit, &mag)) {
        extra = mag ? Tick(mag) : hop;
        ++tally.delays;
    }
    dropped = fp.active() && fp.fires(drop_site, now, unit, &mag);

    if (dropped)
        tally.dropped.add(bytes, ser);
    else
        tally.carried[std::size_t(cls)].add(bytes, ser);
    return tx_done + hop + extra;
}

ChannelSet::ChannelSet(std::size_t n, Tick hop_latency,
                       double gb_per_sec, std::uint32_t flit_bytes)
    : chans(n, Channel(hop_latency, gb_per_sec, flit_bytes))
{
}

ChannelTotals
ChannelSet::totals() const
{
    ChannelTotals sum;
    for (const Channel &c : chans)
        sum += c.totals();
    return sum;
}

double
ChannelSet::peakUtilization(Tick end) const
{
    Tick peak = 0;
    for (const Channel &c : chans)
        peak = std::max(peak, c.totals().of(Traffic::Workload).ticks);
    return end ? double(peak) / double(end) : 0;
}

void
ChannelSet::foldStats(
    StatGroup &g,
    const std::function<std::string(std::size_t)> &name) const
{
    for (std::size_t i = 0; i < chans.size(); ++i) {
        const Tally &w = chans[i].totals().of(Traffic::Workload);
        if (w.msgs) {
            g.counter(name(i) + ".bytes") = w.bytes;
            g.counter(name(i) + ".busyTicks") = w.ticks;
        }
    }
    const ChannelTotals sum = totals();
    auto put = [&g](const char *msgs, const char *bytes,
                    const Tally &t) {
        if (t.msgs) {
            g.counter(msgs) = t.msgs;
            g.counter(bytes) = t.bytes;
        }
    };
    put("msgs", "bytes", sum.of(Traffic::Workload));
    put("migMsgs", "migBytes", sum.of(Traffic::Migration));
    put("probeMsgs", "probeBytes", sum.of(Traffic::Probe));
    put("drops", "dropBytes", sum.dropped);
    if (sum.delays)
        g.counter("delayed") = sum.delays;
}

} // namespace dpu::sim
