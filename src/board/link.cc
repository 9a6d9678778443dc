#include "board/link.hh"

#include <string>

#include "sim/domain.hh"
#include "sim/fault.hh"
#include "sim/logging.hh"
#include "sim/trace.hh"

namespace dpu::board {

namespace {

/** Stat cell prefix for the (src, dst) channel. */
std::string
chPrefix(unsigned s, unsigned d)
{
    return "ch" + std::to_string(s) + "to" + std::to_string(d);
}

} // namespace

LinkFabric::LinkFabric(sim::EpochRunner &runner_)
    : sim::ChannelSet(std::size_t(runner_.partitions()) *
                          runner_.partitions(),
                      linkHopLatency, linkGbPerSec, linkFlitBytes),
      runner(runner_), n(runner_.partitions()), stats("link")
{
    // Sends run in the source chip's execution domain; make sure the
    // cross-cutting planes are sized for it.
    sim::faultPlane().ensureDomains(n);
    sim::tracer().ensureDomains(n);
    stats.addFlushHook([this] {
        foldStats(stats, [this](std::size_t i) {
            return chPrefix(unsigned(i / n), unsigned(i % n));
        });
    });
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
    return double(chans[src * n + dst]
                      .totals()
                      .of(sim::Traffic::Workload)
                      .ticks) /
           double(now);
}

double
LinkFabric::peakUtilization() const
{
    return ChannelSet::peakUtilization(runner.queue(0).now());
}

} // namespace dpu::board
