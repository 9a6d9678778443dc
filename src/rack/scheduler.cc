#include "rack/scheduler.hh"

#include <algorithm>
#include <cstdio>

#include "host/router.hh"
#include "host/summary.hh"
#include "sim/logging.hh"
#include "util/crc32.hh"

namespace dpu::rack {

unsigned
keyPartition(std::uint64_t key, unsigned key_partitions)
{
    sim_assert(key_partitions >= 1,
               "placement needs at least one key partition");
    // Pure function of the key alone: the partition is the stable
    // placement unit that survives cluster reshapes.
    std::uint32_t h = util::crc32Key(std::uint32_t(key));
    h = util::crc32Key(h ^ std::uint32_t(key >> 32));
    return h % key_partitions;
}

std::string
checkPlacement(const PlacementParams &p, unsigned n_boards)
{
    if (p.replication == 0)
        return "placement needs at least one replica "
               "(PlacementParams.replication = 0)";
    if (p.replication > n_boards)
        return "replication " + std::to_string(p.replication) +
               " exceeds the rack's " + std::to_string(n_boards) +
               " board" + (n_boards == 1 ? "" : "s");
    if ((p.admitWindow == 0) != (p.admitPerWindow == 0))
        return "admission control needs both admitWindow and "
               "admitPerWindow set (or neither)";
    if (std::string err = board::checkBalance(p.balance); !err.empty())
        return err;
    return checkHealth(p.health);
}

namespace {

/** @p p, once checkPlacement() passes (fatal otherwise). */
const PlacementParams &
checked(const PlacementParams &p, unsigned n_boards)
{
    const std::string err = checkPlacement(p, n_boards);
    sim_assert(err.empty(), "%s", err.c_str());
    return p;
}

} // namespace

RackScheduler::RackScheduler(Rack &r, host::OffloadParams per_dpu,
                             PlacementParams place_)
    : rack(r), place(checked(place_, r.nBoards())),
      partMap(keyPartitions, place.replication),
      mon(std::make_unique<HealthMonitor>(r.net(), r.nBoards(),
                                          place.health)),
      windows(r.nBoards()), tracker(keyPartitions),
      boardAdmitted(r.nBoards(), 0), stats("rack")
{
    nextRollAt = place.balance.window;
    if (place.balance.window) {
        shardNames.resize(rack.nBoards()); // "b4294967295" fits
        for (unsigned b = 0; b < rack.nBoards(); ++b) {
            std::snprintf(shardNames[b].data(), shardNames[b].size(),
                          "b%u", b);
            shardAdmitted.emplace_back(stats, shardNames[b].data(),
                                       "admitted");
        }
    }
    const std::string prefix = per_dpu.statName;
    boardScheds.reserve(rack.nBoards());
    for (unsigned b = 0; b < rack.nBoards(); ++b) {
        host::OffloadParams p = per_dpu;
        p.statName = prefix + ".b" + std::to_string(b);
        boardScheds.push_back(
            std::make_unique<host::BoardScheduler>(
                rack.board(b), std::move(p),
                host::makeHashRouter()));
    }
}

unsigned
RackScheduler::partitionOf(std::uint64_t key) const
{
    return keyPartition(key, keyPartitions);
}

unsigned
RackScheduler::homeOf(unsigned partition) const
{
    return partMap.homeOf(partition, rack.nBoards());
}

unsigned
RackScheduler::primaryOf(std::uint64_t key) const
{
    return homeOf(partitionOf(key));
}

std::vector<unsigned>
RackScheduler::replicasOf(std::uint64_t key) const
{
    return partMap.candidates(partitionOf(key), rack.nBoards());
}

bool
RackScheduler::admissionFull(unsigned b, sim::Tick now)
{
    if (!place.admitWindow)
        return false;
    std::deque<sim::Tick> &w = windows[b];
    // The window is the half-open (now - admitWindow, now]: an
    // admission exactly admitWindow old has aged out (keeping it
    // made the cap span admitWindow + 1 ticks).
    if (now >= place.admitWindow) {
        const sim::Tick horizon = now - place.admitWindow;
        while (!w.empty() && w.front() <= horizon)
            w.pop_front();
    }
    return w.size() >= place.admitPerWindow;
}

RackScheduler::InFlight *
RackScheduler::inflightOf(unsigned partition)
{
    for (InFlight &m : inflight)
        if (m.step.partition == partition)
            return &m;
    return nullptr;
}

void
RackScheduler::commitReady(sim::Tick when)
{
    for (std::size_t i = 0; i < inflight.size();) {
        if (inflight[i].readyAt > when) {
            ++i;
            continue;
        }
        const InFlight m = inflight[i];
        inflight.erase(inflight.begin() +
                       std::vector<InFlight>::difference_type(i));
        if (m.isRepair) {
            // The fresh copy is whole: append its board to the
            // partition's replica set (the primary is untouched —
            // this restores width, it does not re-home).
            std::vector<unsigned> set =
                partMap.candidates(m.step.partition, rack.nBoards());
            if (std::find(set.begin(), set.end(), m.step.to) ==
                set.end()) {
                set.push_back(m.step.to);
                partMap.setReplicas(m.step.partition, std::move(set));
            }
            ++repairCommitted;
            if (repairsOwed(m.attributed) == 0)
                mon->markRepaired(m.attributed);
        } else {
            // Drain-then-switch: everything enqueued before this
            // tick went to (and will finish at) the old home;
            // everything after routes to the new one. No job is in
            // limbo.
            partMap.reassign(m.step.partition, m.step.to);
            ++migCommitted;
        }
    }
}

bool
RackScheduler::ship(InFlight m, sim::Tick when)
{
    // State volume scales with the traffic the partition absorbed:
    // a fixed snapshot base plus per-request working set.
    const std::uint64_t bytes =
        board::stateBytesPerPartition +
        board::deltaBytesPerRequest *
            tracker.totalLoad(m.step.partition);
    bool dropped = false;
    m.readyAt = rack.net().deliver(m.step.to, bytes, when, dropped,
                                   sim::Traffic::Migration);
    if (!dropped)
        inflight.push_back(m);
    return !dropped;
}

unsigned
RackScheduler::repairsOwed(unsigned b) const
{
    unsigned n = 0;
    for (const RepairJob &j : owedRepairs)
        n += j.attributed == b;
    for (const InFlight &m : inflight)
        n += m.isRepair && m.attributed == b;
    return n;
}

int
RackScheduler::pickReplacement(
    const std::vector<unsigned> &exclude) const
{
    // Deterministic: least admitted traffic wins, lowest index
    // breaks ties. Only boards the detector trusts are eligible —
    // re-replicating onto a Suspect board would race its verdict.
    int best = -1;
    for (unsigned b = 0; b < rack.nBoards(); ++b) {
        if (mon->state(b) != BoardHealth::Healthy)
            continue;
        bool used = false;
        for (unsigned e : exclude)
            used |= e == b;
        if (used)
            continue;
        if (best < 0 ||
            boardAdmitted[b] < boardAdmitted[unsigned(best)])
            best = int(b);
    }
    return best;
}

void
RackScheduler::repairBoard(unsigned b)
{
    // 1. In-flight transfers touching the dead board are void: a
    // source that died mid-drain loses its epoch, a dead target
    // can't take delivery. Abort cleanly; eviction below re-homes
    // whatever lived there, and an aborted repair is re-queued so
    // its partition still gets a new copy.
    for (std::size_t i = 0; i < inflight.size();) {
        InFlight &m = inflight[i];
        if (m.step.from != b && m.step.to != b) {
            ++i;
            continue;
        }
        if (m.isRepair)
            owedRepairs.push_back(
                {m.step.partition, m.attributed});
        else
            ++migAborted;
        inflight.erase(inflight.begin() +
                       std::vector<InFlight>::difference_type(i));
    }

    // 2. Evict b from every replica set it serves. The strongest
    // survivor is promoted to primary; the lost width is owed as a
    // re-replication shipped by pumpRepairs().
    for (unsigned p2 = 0; p2 < keyPartitions; ++p2) {
        const std::vector<unsigned> set =
            partMap.candidates(p2, rack.nBoards());
        if (std::find(set.begin(), set.end(), b) == set.end())
            continue;
        std::vector<unsigned> survivors;
        for (unsigned s : set)
            if (s != b)
                survivors.push_back(s);
        if (survivors.empty()) {
            // Replication 1 and the only copy died: re-provision
            // onto the coldest healthy board (the real system
            // restores from its durable store).
            const int r = pickReplacement(survivors);
            if (r < 0)
                continue; // whole rack dark; leave it routed at b
            survivors.push_back(unsigned(r));
        }
        const bool narrowed = survivors.size() < partMap.replicationWidth();
        partMap.setReplicas(p2, std::move(survivors));
        if (narrowed) {
            bool owed = inflightOf(p2) != nullptr;
            for (const RepairJob &j : owedRepairs)
                owed |= j.partition == p2;
            if (!owed)
                owedRepairs.push_back({p2, b});
        }
    }
    if (repairsOwed(b) == 0)
        mon->markRepaired(b);
}

void
RackScheduler::pumpRepairs(sim::Tick when)
{
    if (owedRepairs.empty())
        return;
    std::vector<RepairJob> still;
    for (const RepairJob &j : owedRepairs) {
        const std::vector<unsigned> set =
            partMap.candidates(j.partition, rack.nBoards());
        const int target = pickReplacement(set);
        if (target < 0) {
            // No healthy board free to hold the copy; keep owing.
            still.push_back(j);
            continue;
        }
        InFlight m;
        m.step.partition = j.partition;
        m.step.from = set.front();
        m.step.to = unsigned(target);
        m.isRepair = true;
        m.attributed = j.attributed;
        ++repairStarted;
        // A dropped copy burned its wire time: retried at the next
        // arrival (the obligation survives).
        if (!ship(m, when))
            still.push_back(j);
    }
    owedRepairs = std::move(still);
}

void
RackScheduler::processTransitions()
{
    const std::vector<HealthTransition> &log = mon->transitions();
    for (; seenTransitions < log.size(); ++seenTransitions) {
        const HealthTransition &t = log[seenTransitions];
        if (t.to == BoardHealth::Down)
            repairBoard(t.board);
    }
}

void
RackScheduler::advanceHealth(sim::Tick when)
{
    if (!mon->monitoring())
        return;
    mon->advanceTo(when);
    processTransitions();
    pumpRepairs(when);
}

bool
RackScheduler::shouldShed(unsigned b, sim::Tick send_at,
                          const RackRequest &req) const
{
    if (!mon->monitoring())
        return false;
    const bool suspect = mon->suspectVerdict(b);
    bool pressured = suspect;
    if (!pressured && place.admitWindow)
        pressured = double(windows[b].size()) >=
                    shedPressure * double(place.admitPerWindow);
    if (!pressured)
        return false;
    // Predict the front-end delay from observable state: the
    // ingress pipe's committed backlog, this request's wire time,
    // the hop, plus the ack-timeout stall a Suspect board risks.
    const sim::Tick predicted =
        rack.net().backlog(b, send_at) +
        rack.net().wireTicks(req.bytes) + netHopLatency +
        (suspect ? place.health.ackTimeout : 0);
    const sim::Tick deadline =
        req.job.timeout ? req.job.timeout : host::defaultTimeout;
    return double(predicted) > double(deadline) * shedDeadlineFrac;
}

void
RackScheduler::advanceBalancer(sim::Tick when)
{
    while (nextRollAt && when >= nextRollAt) {
        const sim::Tick boundary = nextRollAt;
        nextRollAt += place.balance.window;
        // Commit transfers delivered by this boundary before
        // planning, so the plan sees the freshest committed map.
        commitReady(boundary);
        tracker.roll(place.balance.ewmaAlpha);
        std::vector<unsigned> home = partMap.homes(rack.nBoards());
        std::vector<bool> frozen(keyPartitions, false);
        for (const InFlight &m : inflight)
            frozen[m.step.partition] = true;
        const std::vector<board::MigrationStep> plan =
            board::planMigrations(tracker.loads(), home,
                                  rack.nBoards(), place.balance,
                                  frozen);
        for (const board::MigrationStep &s : plan) {
            // An evicted board carries no load, so the planner
            // sees it as the coldest target — but shipping state
            // onto a board the detector distrusts would hand
            // partitions right back to the failure. (A rejoined
            // board is Healthy again and soaks up load normally.)
            if (mon->monitoring() &&
                mon->state(s.to) != BoardHealth::Healthy)
                continue;
            ++migStarted;
            // A transfer that dies on the wire aborts: the
            // partition stays at its source, and a later window may
            // retry.
            if (!ship({s}, boundary))
                ++migAborted;
        }
    }
}

AdmitResult
RackScheduler::enqueueAt(sim::Tick when, RackRequest req,
                         unsigned *board_out)
{
    sim_assert(when >= lastOffer,
               "rack arrivals must be offered in trace order");
    lastOffer = when;
    ++offered;

    advanceHealth(when);

    const unsigned part = partitionOf(req.key);
    if (place.balance.window) {
        advanceBalancer(when);
        // Offered demand, not admitted: rejects are load too.
        tracker.record(part);
    }
    // Flip the map for every transfer (move or repair) delivered by
    // now, so this request routes on the freshest committed map.
    commitReady(when);

    const std::vector<unsigned> group =
        partMap.candidates(part, rack.nBoards());
    bool sawFull = false, sawDrop = false, sawShed = false;
    // Why the previous candidates were skipped decides whether a
    // non-primary delivery counts as a failover (outage signals)
    // or a mere admission re-route (load shedding/spreading).
    bool outagePrior = false, admitPrior = false;
    // Every attempt that draws no ack stalls the front-end for
    // ackTimeout before the next replica is tried.
    sim::Tick penalty = 0;
    for (std::size_t i = 0; i < group.size(); ++i) {
        const unsigned b = group[i];
        if (!mon->routable(b)) {
            // Detector verdict (Down/Probation): no oracle here.
            outagePrior = true;
            continue;
        }
        const sim::Tick sendAt = when + penalty;
        if (admissionFull(b, sendAt)) {
            sawFull = true;
            admitPrior = true;
            continue;
        }
        if (shouldShed(b, sendAt, req)) {
            sawShed = true;
            admitPrior = true;
            continue;
        }
        bool dropped = false;
        const sim::Tick delivered =
            rack.net().deliver(b, req.bytes, sendAt, dropped);
        if (dropped) {
            // No ack will ever come back, and the front-end can't
            // tell a fabric drop from a dead board — both feed the
            // detector the same miss.
            mon->observeMiss(b, sendAt + place.health.ackTimeout);
            sawDrop = true;
            outagePrior = true;
            penalty += place.health.ackTimeout;
            continue;
        }
        if (!mon->aliveAt(b, delivered)) {
            // Delivered into a dead board (the injection point for
            // rack.boardDown / rack.boardCrash): same observable
            // outcome, a missing ack.
            mon->observeMiss(b, sendAt + place.health.ackTimeout);
            outagePrior = true;
            penalty += place.health.ackTimeout;
            continue;
        }
        mon->observeAck(b, delivered + netHopLatency);
        if (place.admitWindow) {
            // A failover attempt enters at when + its ack-timeout
            // penalty, so a later direct arrival may enter earlier:
            // keep the window sorted so it ages out from the front.
            std::deque<sim::Tick> &w = windows[b];
            w.insert(std::upper_bound(w.begin(), w.end(), sendAt),
                     sendAt);
        }
        ++admitted;
        ++boardAdmitted[b];
        // Per-shard serving accounting only matters when the
        // balancer is live, so un-balanced goldens keep their keys.
        if (place.balance.window)
            ++shardAdmitted[b];
        if (i > 0) {
            if (outagePrior)
                ++failovers;
            else if (admitPrior)
                ++admitReroutes;
        }
        if (board_out)
            *board_out = b;
        if (InFlight *m = inflightOf(part);
            m && b == m->step.from) {
            // Forwarding epoch: the request drains at the source,
            // and its delta rides to the new home so the snapshot
            // in flight stays current. A dropped delta only costs
            // accounting (the commit re-sends nothing — state is
            // modeled, not materialized).
            ++forwarded;
            bool deltaDropped = false;
            rack.net().deliver(m->step.to,
                               board::deltaBytesPerRequest, sendAt,
                               deltaDropped,
                               sim::Traffic::Migration);
        }
        boardScheds[b]->enqueueAt(delivered, std::move(req.job));
        return AdmitResult::Admitted;
    }
    // Attribution order mirrors how far the request got: a drop
    // means it physically reached the fabric; a shed means the
    // brown-out controller chose to fail it fast; a full window
    // means the rate cap shed it; otherwise every replica was
    // down (detector verdict or missing acks).
    if (sawDrop) {
        ++netLost;
        return AdmitResult::NetLost;
    }
    if (sawShed) {
        ++shed;
        return AdmitResult::Shed;
    }
    if (sawFull) {
        ++rejected;
        return AdmitResult::Rejected;
    }
    ++boardsDown;
    return AdmitResult::BoardsDown;
}

void
RackScheduler::start()
{
    for (auto &s : boardScheds)
        s->start();
}

RackSummary
RackScheduler::summary() const
{
    RackSummary sum;
    sum.offered = offered.value();
    sum.admitted = admitted.value();
    sum.rejected = rejected.value();
    sum.boardsDown = boardsDown.value();
    sum.netLost = netLost.value();
    sum.shed = shed.value();
    sum.failovers = failovers.value();
    sum.admitReroutes = admitReroutes.value();
    sum.probes = mon->probesSent();
    sum.repairsStarted = repairStarted.value();
    sum.repairsCommitted = repairCommitted.value();
    sum.migStarted = migStarted.value();
    sum.migCommitted = migCommitted.value();
    sum.migAborted = migAborted.value();
    sum.forwarded = forwarded.value();
    sum.migrationBytes = rack.net().migrationBytes();
    sum.netDroppedBytes = rack.net().droppedBytes();

    // Fold per-DPU shard summaries directly (host/summary.hh):
    // availability weighted by each shard's submitted jobs,
    // percentiles recomputed over every completed job.
    host::SummaryFold fold;
    for (const auto &bs : boardScheds)
        for (unsigned d = 0; d < bs->nShards(); ++d)
            fold.add(bs->shard(d).summary(), bs->shard(d).jobs());
    sum.serving = fold.finish();
    sum.usersPerSimSec = sum.serving.throughputJobsPerSec;
    if (sum.offered)
        sum.servedFraction =
            double(sum.serving.completed) / double(sum.offered);
    sum.netPeakUtilization = rack.net().peakUtilization(rack.now());
    return sum;
}

} // namespace dpu::rack
