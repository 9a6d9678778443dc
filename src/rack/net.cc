#include "rack/net.hh"

#include <cstdio>

#include "sim/logging.hh"

namespace dpu::rack {

RackNet::RackNet(unsigned n_boards)
    : sim::ChannelSet("racknet", 1)
{
    sim_assert(n_boards >= 1, "a rack network needs at least one board");
    for (unsigned b = 0; b < n_boards; ++b) {
        char name[sim::Channel::nameBytes];
        std::snprintf(name, sizeof name, "board%u", b);
        chans.emplace_back(netHopLatency, netGbPerSec, netFlitBytes,
                           stats, rows[0], name); // "board4294967295" fits
    }
}

sim::Tick
RackNet::deliver(unsigned dst, std::uint64_t bytes, sim::Tick now,
                 bool &dropped, sim::Traffic cls)
{
    sim_assert(dst < size(), "request aimed off the rack (board %u)",
               dst);
    // Admission runs in the host phase (domain 0) in a fixed order,
    // so the fault draws replay exactly under the same spec + seed.
    return chans[dst].send(now, bytes, cls,
                           sim::FaultSite::RackNetDelay,
                           sim::FaultSite::RackNetDrop, int(dst),
                           dropped);
}

sim::Tick
RackNet::backlog(unsigned dst, sim::Tick now) const
{
    sim_assert(dst < size(), "bad rack endpoint %u", dst);
    return chans[dst].backlog(now);
}

} // namespace dpu::rack
