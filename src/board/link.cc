#include "board/link.hh"

#include <cstdio>

#include "sim/domain.hh"
#include "sim/fault.hh"
#include "sim/logging.hh"
#include "sim/trace.hh"

namespace dpu::board {

LinkFabric::LinkFabric(sim::EpochRunner &runner_)
    : sim::ChannelSet("link", runner_.partitions()), runner(runner_),
      n(runner_.partitions())
{
    for (unsigned s = 0; s < n; ++s) {
        for (unsigned d = 0; d < n; ++d) {
            char name[sim::Channel::nameBytes];
            const int len =
                std::snprintf(name, sizeof name, "ch%uto%u", s, d);
            sim_assert(len < int(sizeof name), "too many DPUs (%u)", n);
            chans.emplace_back(linkHopLatency, linkGbPerSec,
                               linkFlitBytes, stats, rows[s], name);
        }
    }
    // Sends run in the source chip's execution domain; make sure the
    // cross-cutting planes are sized for it.
    sim::faultPlane().ensureDomains(n);
    sim::tracer().ensureDomains(n);
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
