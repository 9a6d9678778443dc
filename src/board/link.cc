#include "board/link.hh"

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

LinkFabric::LinkFabric(unsigned n_dpus)
    : sim::ChannelSet(std::size_t(n_dpus) * n_dpus, linkHopLatency,
                      linkGbPerSec, linkFlitBytes),
      n(n_dpus), queues(n), inbox(std::size_t(n) * n), handlers(n),
      unhandled(n),
      stats("link")
{
    sim_assert(n >= 1, "a board fabric needs at least one DPU");
    // Sends run in the source chip's execution domain; make sure the
    // cross-cutting planes are sized for it.
    sim::faultPlane().ensureDomains(n);
    sim::tracer().ensureDomains(n);
    stats.addFlushHook([this] {
        foldStats(stats, [this](std::size_t i) {
            return chPrefix(unsigned(i / n), unsigned(i % n));
        });
        std::uint64_t unh = 0;
        for (unsigned d = 0; d < n; ++d)
            unh += unhandled[d];
        if (unh)
            stats.counter("unhandledRpcs") = unh;
    });
}

void
LinkFabric::attach(unsigned dpu, sim::EventQueue &q)
{
    sim_assert(dpu < n, "bad fabric endpoint %u", dpu);
    queues[dpu] = &q;
}

void
LinkFabric::onRpc(unsigned dst, RpcHandler handler)
{
    sim_assert(dst < n, "bad fabric endpoint %u", dst);
    handlers[dst] = std::move(handler);
}

void
LinkFabric::sendRpc(unsigned src, unsigned dst, std::uint64_t payload)
{
    bool dropped = false;
    const sim::Tick arrive = startBulk(src, dst, 8, dropped);
    if (dropped)
        return; // lost in the fabric; sender-level recovery applies
    inbox[src * n + dst].push_back({arrive, payload, {}});
}

sim::Tick
LinkFabric::startBulk(unsigned src, unsigned dst,
                      std::uint64_t bytes, bool &dropped,
                      sim::Traffic cls)
{
    sim_assert(src < n && dst < n && src != dst,
               "bad fabric route %u -> %u", src, dst);
    sim_assert(queues[src], "DPU %u has no attached queue", src);
    // The whole decision happens on the source chip: its clock, its
    // channel row, its fault-domain stream. That keeps the outcome a
    // pure function of the send, whatever thread runs it.
    sim::DomainScope domain(src);
    return chans[src * n + dst].send(
        queues[src]->now(), bytes, cls, sim::FaultSite::LinkDelay,
        sim::FaultSite::LinkDrop, int(src * n + dst), dropped);
}

void
LinkFabric::postDelivery(unsigned src, unsigned dst, sim::Tick when,
                         std::function<void()> fn)
{
    sim_assert(src < n && dst < n, "bad fabric route %u -> %u", src,
               dst);
    sim_assert(fn, "bulk delivery needs an action");
    inbox[src * n + dst].push_back({when, 0, std::move(fn)});
}

void
LinkFabric::drainInbound(unsigned dst)
{
    sim_assert(dst < n, "bad fabric endpoint %u", dst);
    sim::EventQueue *q = queues[dst];
    for (unsigned src = 0; src < n; ++src) {
        std::vector<Pending> &mb = inbox[src * n + dst];
        if (mb.empty())
            continue;
        sim_assert(q, "DPU %u has no attached queue", dst);
        for (Pending &m : mb) {
            sim_assert(m.when >= q->now(),
                       "late delivery %u -> %u (lookahead beyond "
                       "the hop latency?)",
                       src, dst);
            if (m.fn) {
                q->schedule(m.when, std::move(m.fn),
                            sim::EvTag::Link);
            } else {
                q->schedule(m.when,
                            [this, src, dst,
                             payload = m.payload] {
                                if (handlers[dst])
                                    handlers[dst](src, payload);
                                else
                                    ++unhandled[dst];
                            },
                            sim::EvTag::Link);
            }
        }
        mb.clear();
    }
}

double
LinkFabric::utilization(unsigned src, unsigned dst) const
{
    // Host-phase query; after a run every partition clock is aligned
    // on the board's final tick, so any attached queue will do.
    const sim::EventQueue *q = queues[0];
    if (!q || q->now() == 0)
        return 0;
    return double(chans[src * n + dst]
                      .totals()
                      .of(sim::Traffic::Workload)
                      .ticks) /
           double(q->now());
}

double
LinkFabric::peakUtilization() const
{
    const sim::EventQueue *q = queues[0];
    return q ? ChannelSet::peakUtilization(q->now()) : 0;
}

} // namespace dpu::board
