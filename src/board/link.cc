#include "board/link.hh"

#include <charconv>

#include "sim/domain.hh"
#include "sim/fault.hh"
#include "sim/logging.hh"

namespace dpu::board {

namespace {

/** Write "ch<src>to<dst>" into @p name; false when it does not fit.
 *  A board of n chips names n^2 channels, so no snprintf. */
bool
channelName(char (&name)[sim::Channel::nameBytes], unsigned src,
            unsigned dst)
{
    char *const last = name + sizeof name - 1; // the terminator's
    name[0] = 'c';
    name[1] = 'h';
    std::to_chars_result r = std::to_chars(name + 2, last, src);
    if (r.ec != std::errc() || last - r.ptr < 2)
        return false;
    r.ptr[0] = 't';
    r.ptr[1] = 'o';
    r = std::to_chars(r.ptr + 2, last, dst);
    if (r.ec != std::errc())
        return false;
    *r.ptr = '\0';
    return true;
}

} // namespace

LinkFabric::LinkFabric(sim::EpochRunner &runner_)
    : sim::ChannelSet("link", runner_.partitions()), runner(runner_),
      n(runner_.partitions())
{
    // Each channel adds two counters to the group: grow its index
    // once, not by doubling through 2 n^2 entries.
    stats.reserve(2 * std::size_t(n) * n);
    for (unsigned s = 0; s < n; ++s) {
        for (unsigned d = 0; d < n; ++d) {
            char name[sim::Channel::nameBytes];
            sim_assert(channelName(name, s, d), "too many DPUs (%u)", n);
            chans.emplace_back(linkHopLatency, linkGbPerSec,
                               linkFlitBytes, stats, rows[s], name);
        }
    }
}

sim::Tick
LinkFabric::send(unsigned src, unsigned dst, std::uint64_t bytes,
                 sim::Traffic cls, sim::EventQueue::Callback fn,
                 bool &dropped)
{
    sim_assert(src < n && dst < n && src != dst,
               "bad fabric route %u -> %u", src, dst);
    sim_assert(runner.onPartition(src),
               "send %u -> %u issued from another chip's partition",
               src, dst);
    sim::Tick arrive;
    {
        // The whole decision happens on the source chip: its clock,
        // its channel row, its fault-domain stream. That keeps the
        // outcome a pure function of the send, whatever thread runs
        // it.
        sim::DomainScope domain(src);
        arrive = chans[src * n + dst].send(
            runner.queue(src).now(), bytes, cls,
            sim::FaultSite::LinkDelay, sim::FaultSite::LinkDrop,
            int(src * n + dst), dropped);
    }
    if (!dropped)
        runner.post(src, dst, arrive, std::move(fn));
    return arrive;
}

double
LinkFabric::utilization(unsigned src, unsigned dst) const
{
    // Host-phase query; after a run every partition clock is aligned
    // on the board's final tick, so any partition's will do.
    const sim::Tick now = runner.queue(0).now();
    if (now == 0)
        return 0;
    return double(chans[src * n + dst].busyTicks()) / double(now);
}

double
LinkFabric::peakUtilization() const
{
    return ChannelSet::peakUtilization(runner.queue(0).now());
}

} // namespace dpu::board
