#include "rack/health.hh"

#include "sim/fault.hh"
#include "sim/logging.hh"

namespace dpu::rack {

std::string
checkHealth(const HealthParams &h)
{
    if (!h.heartbeatPeriod)
        return "";
    if (h.ackTimeout == 0)
        return "an enabled health monitor needs a positive ack "
               "timeout (HealthParams.ackTimeout = 0)";
    if (h.suspectAfter == 0)
        return "the detector needs at least one miss to suspect a "
               "board (HealthParams.suspectAfter = 0)";
    if (h.downAfter < h.suspectAfter)
        return "downAfter " + std::to_string(h.downAfter) +
               " below suspectAfter " +
               std::to_string(h.suspectAfter) +
               " would skip the Suspect state";
    if (h.rejoinAfter == 0)
        return "the detector needs at least one clean probe to "
               "rejoin (HealthParams.rejoinAfter = 0)";
    return "";
}

HealthMonitor::HealthMonitor(RackNet &net_, unsigned n_boards,
                             HealthParams p)
    : net(net_), prm(p), n(n_boards), boards(n_boards)
{
    sim_assert(n >= 1, "health monitor needs at least one board");
    const std::string err = checkHealth(prm);
    sim_assert(err.empty(), "%s", err.c_str());
    if (!monitoring())
        return;
    nextProbeAt = prm.heartbeatPeriod;
    stats = std::make_unique<Stats>();
}

bool
HealthMonitor::aliveAt(unsigned b, sim::Tick t)
{
    sim_assert(b < n, "board %u off the rack (%u boards)", b, n);
    BoardState &bs = boards[b];
    sim::FaultPlane &fp = sim::faultPlane();
    if (fp.active() &&
        fp.fires(sim::FaultSite::RackBoardCrash, t, int(b))) {
        // A crash is sticky: the board's partition state is gone,
        // and only the repair controller (markRepaired) brings the
        // hardware back.
        bs.crashedLatch = true;
    }
    if (bs.crashedLatch)
        return false;
    return !(fp.active() &&
             fp.fires(sim::FaultSite::RackBoardDown, t, int(b)));
}

void
HealthMonitor::markRepaired(unsigned b)
{
    sim_assert(b < n, "board %u off the rack (%u boards)", b, n);
    boards[b].crashedLatch = false;
}

void
HealthMonitor::push(unsigned b, sim::Tick at, bool ack)
{
    Obs o;
    o.at = at;
    o.seq = seqGen++;
    o.board = b;
    o.ack = ack;
    pending.push(o);
}

void
HealthMonitor::observeAck(unsigned b, sim::Tick at)
{
    if (!monitoring())
        return;
    sim_assert(b < n, "board %u off the rack (%u boards)", b, n);
    push(b, at, true);
}

void
HealthMonitor::observeMiss(unsigned b, sim::Tick at)
{
    if (!monitoring())
        return;
    sim_assert(b < n, "board %u off the rack (%u boards)", b, n);
    push(b, at, false);
}

void
HealthMonitor::transition(unsigned b, BoardHealth to, sim::Tick at)
{
    HealthTransition t;
    t.at = at;
    t.board = b;
    t.from = boards[b].st;
    t.to = to;
    log.push_back(t);
    boards[b].st = to;
    switch (to) {
    case BoardHealth::Suspect:
        ++stats->suspects;
        break;
    case BoardHealth::Down:
        ++stats->downs;
        break;
    case BoardHealth::Healthy:
        if (t.from == BoardHealth::Probation)
            ++stats->rejoins;
        break;
    case BoardHealth::Probation:
        break;
    }
}

void
HealthMonitor::resolve(const Obs &o)
{
    BoardState &bs = boards[o.board];
    if (o.ack) {
        ++stats->acks;
        bs.consecMiss = 0;
        ++bs.consecAck;
        switch (bs.st) {
        case BoardHealth::Suspect:
            // One good ack clears a suspicion: misses are
            // ambiguous (drop or death), acks are not.
            transition(o.board, BoardHealth::Healthy, o.at);
            break;
        case BoardHealth::Down:
            transition(o.board, BoardHealth::Probation, o.at);
            bs.consecAck = 1;
            break;
        case BoardHealth::Probation:
            if (bs.consecAck >= prm.rejoinAfter)
                transition(o.board, BoardHealth::Healthy, o.at);
            break;
        case BoardHealth::Healthy:
            break;
        }
        return;
    }
    ++stats->misses;
    bs.consecAck = 0;
    ++bs.consecMiss;
    switch (bs.st) {
    case BoardHealth::Healthy:
        if (bs.consecMiss >= prm.suspectAfter)
            transition(o.board, BoardHealth::Suspect, o.at);
        break;
    case BoardHealth::Suspect:
        if (bs.consecMiss >= prm.downAfter)
            transition(o.board, BoardHealth::Down, o.at);
        break;
    case BoardHealth::Probation:
        // Probation is strict: any relapse goes straight back.
        transition(o.board, BoardHealth::Down, o.at);
        break;
    case BoardHealth::Down:
        break;
    }
}

void
HealthMonitor::sendProbes(sim::Tick at)
{
    // Fixed board order per round: the probe schedule is part of
    // the deterministic host phase.
    for (unsigned b = 0; b < n; ++b) {
        ++stats->probes;
        bool dropped = false;
        const sim::Tick delivered = net.deliver(
            b, probeBytes, at, dropped, sim::Traffic::Probe);
        if (!dropped && aliveAt(b, delivered)) {
            // The pong is a flit-sized message; the return hop's
            // latency dominates, so model it as one hop.
            push(b, delivered + netHopLatency, true);
        } else {
            push(b, at + prm.ackTimeout, false);
        }
    }
}

void
HealthMonitor::advanceTo(sim::Tick now)
{
    if (!monitoring())
        return;
    while (nextProbeAt <= now) {
        sendProbes(nextProbeAt);
        nextProbeAt += prm.heartbeatPeriod;
    }
    while (!pending.empty() && pending.top().at <= now) {
        const Obs o = pending.top();
        pending.pop();
        resolve(o);
    }
}

} // namespace dpu::rack
