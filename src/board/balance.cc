#include "board/balance.hh"

#include <algorithm>

#include "board/board.hh"
#include "dms/handoff.hh"
#include "sim/logging.hh"
#include "util/crc32.hh"

namespace dpu::board {

// ----------------------------------------------------------------
// Knob validation
// ----------------------------------------------------------------

std::string
checkBalance(const BalancePolicy &p)
{
    if (!p.window)
        return "";
    if (p.ewmaAlpha <= 0 || p.ewmaAlpha > 1)
        return "the balancer EWMA alpha must sit in (0, 1] "
               "(BalancePolicy.ewmaAlpha = " +
               std::to_string(p.ewmaAlpha) + ")";
    if (p.hotFactor < 1.0)
        return "a hotFactor below 1 flags every node hot "
               "(BalancePolicy.hotFactor = " +
               std::to_string(p.hotFactor) + ")";
    if (p.maxMigrationsPerWindow == 0)
        return "an enabled balancer needs a migration budget "
               "(BalancePolicy.maxMigrationsPerWindow = 0)";
    return "";
}

std::string
checkBalance(const BalanceParams &p)
{
    // The board routes keyed offers through its partition table
    // with the balancer off too.
    if (p.keyPartitions == 0)
        return "the board needs at least one key partition "
               "(BalanceParams.keyPartitions = 0)";
    const BalancePolicy &policy = p;
    return checkBalance(policy);
}

// ----------------------------------------------------------------
// LoadTracker
// ----------------------------------------------------------------

LoadTracker::LoadTracker(unsigned n_partitions)
    : counts(n_partitions, 0), totals(n_partitions, 0),
      ewma(n_partitions, 0.0)
{
    sim_assert(n_partitions >= 1,
               "load tracker needs at least one partition");
}

void
LoadTracker::record(unsigned partition)
{
    sim_assert(partition < counts.size(),
               "load recorded for unknown partition %u", partition);
    ++counts[partition];
    ++totals[partition];
}

void
LoadTracker::roll(double alpha)
{
    sim_assert(alpha > 0 && alpha <= 1,
               "EWMA alpha must be in (0, 1], got %f", alpha);
    for (std::size_t i = 0; i < counts.size(); ++i) {
        const double cur = double(counts[i]);
        // Prime with the raw first window so a cold tracker does
        // not need several windows to see an obvious hot spot.
        ewma[i] = rolls == 0 ? cur
                             : alpha * cur + (1.0 - alpha) * ewma[i];
        counts[i] = 0;
    }
    ++rolls;
}

double
LoadTracker::load(unsigned partition) const
{
    sim_assert(partition < ewma.size(),
               "load queried for unknown partition %u", partition);
    return ewma[partition];
}

std::uint64_t
LoadTracker::windowLoad(unsigned partition) const
{
    sim_assert(partition < counts.size(),
               "load queried for unknown partition %u", partition);
    return counts[partition];
}

std::uint64_t
LoadTracker::totalLoad(unsigned partition) const
{
    sim_assert(partition < totals.size(),
               "load queried for unknown partition %u", partition);
    return totals[partition];
}

// ----------------------------------------------------------------
// PartitionMap
// ----------------------------------------------------------------

std::uint32_t
placementHash(std::string_view app, std::uint64_t seed)
{
    std::uint32_t h = 2166136261u;
    for (char ch : app)
        h = (h ^ std::uint8_t(ch)) * 16777619u;
    h = util::crc32Key(h ^ std::uint32_t(seed));
    return util::crc32Key(h ^ std::uint32_t(seed >> 32));
}

unsigned
hashHome(unsigned partition, unsigned n)
{
    return placementHash({}, partition) % n;
}

PartitionMap::PartitionMap(unsigned n_partitions, unsigned replication)
    : nParts(n_partitions), repl(replication),
      overrides(n_partitions, -1), replicaSets(n_partitions)
{
    sim_assert(n_partitions >= 1,
               "partition map: needs at least one partition");
    sim_assert(replication >= 1,
               "partition map: replication must be >= 1");
}

unsigned
PartitionMap::homeOf(unsigned partition, unsigned n) const
{
    sim_assert(partition < nParts,
               "partition %u outside the map (%u partitions)",
               partition, nParts);
    const std::vector<unsigned> &rs = replicaSets[partition];
    if (!rs.empty()) {
        sim_assert(rs[0] < n,
                   "partition %u replica set names node %u of %u",
                   partition, rs[0], n);
        return rs[0];
    }
    const std::int32_t o = overrides[partition];
    if (o >= 0) {
        sim_assert(unsigned(o) < n,
                   "partition %u re-homed onto node %d of %u",
                   partition, o, n);
        return unsigned(o);
    }
    return hashHome(partition, n);
}

std::vector<unsigned>
PartitionMap::homes(unsigned n) const
{
    std::vector<unsigned> out(nParts);
    for (unsigned part = 0; part < nParts; ++part)
        out[part] = homeOf(part, n);
    return out;
}

std::vector<unsigned>
PartitionMap::candidates(unsigned partition, unsigned n) const
{
    const unsigned primary = homeOf(partition, n);
    const std::vector<unsigned> &rs = replicaSets[partition];
    if (!rs.empty()) {
        // Repair pinned this partition's failover order explicitly
        // (dead boards evicted, re-replicated copies appended).
        for (unsigned s : rs)
            sim_assert(s < n,
                       "partition %u replica set names node %u of %u",
                       partition, s, n);
        return rs;
    }
    // Failover falls back onto the hash group, so a re-homed
    // partition keeps the same replica width: the new home plus
    // the strongest prefix of its original group.
    const unsigned g = hashHome(partition, n);
    const unsigned r = repl < n ? repl : n;
    std::vector<unsigned> out{primary};
    for (unsigned i = 0; i < r && out.size() < r; ++i) {
        const unsigned c = (g + i) % n;
        if (c != primary)
            out.push_back(c);
    }
    return out;
}

void
PartitionMap::reassign(unsigned partition, unsigned node)
{
    sim_assert(partition < nParts,
               "partition %u outside the map (%u partitions)",
               partition, nParts);
    overrides[partition] = std::int32_t(node);
    std::vector<unsigned> &rs = replicaSets[partition];
    if (!rs.empty()) {
        rs.erase(std::remove(rs.begin(), rs.end(), node), rs.end());
        rs.insert(rs.begin(), node);
    }
}

bool
PartitionMap::reassigned(unsigned partition) const
{
    sim_assert(partition < nParts,
               "partition %u outside the map (%u partitions)",
               partition, nParts);
    return overrides[partition] >= 0;
}

unsigned
PartitionMap::reassignedCount() const
{
    return unsigned(std::count_if(overrides.begin(), overrides.end(),
                                  [](std::int32_t o) { return o >= 0; }));
}

void
PartitionMap::setReplicas(unsigned partition,
                          std::vector<unsigned> nodes)
{
    sim_assert(partition < nParts,
               "partition %u outside the map (%u partitions)",
               partition, nParts);
    sim_assert(!nodes.empty(),
               "partition %u: an explicit replica set needs at "
               "least one node",
               partition);
    for (std::size_t i = 0; i < nodes.size(); ++i)
        for (std::size_t j = i + 1; j < nodes.size(); ++j)
            sim_assert(nodes[i] != nodes[j],
                       "partition %u: node %u listed twice in its "
                       "replica set",
                       partition, nodes[i]);
    replicaSets[partition] = std::move(nodes);
}

// ----------------------------------------------------------------
// Planner
// ----------------------------------------------------------------

std::vector<MigrationStep>
planMigrations(const std::vector<double> &loads,
               std::vector<unsigned> &home, unsigned n_nodes,
               const BalancePolicy &p,
               const std::vector<bool> &frozen)
{
    sim_assert(loads.size() == home.size(),
               "partition load/home tables disagree: %zu vs %zu",
               loads.size(), home.size());
    std::vector<MigrationStep> plan;
    if (n_nodes < 2)
        return plan;

    std::vector<double> node(n_nodes, 0.0);
    double total = 0;
    for (std::size_t part = 0; part < home.size(); ++part) {
        sim_assert(home[part] < n_nodes,
                   "partition %zu homed off the tier (node %u)",
                   part, home[part]);
        node[home[part]] += loads[part];
        total += loads[part];
    }
    const double mean = total / double(n_nodes);

    while (plan.size() < p.maxMigrationsPerWindow) {
        // Hottest node, lowest index on ties.
        unsigned src = 0;
        for (unsigned b = 1; b < n_nodes; ++b)
            if (node[b] > node[src])
                src = b;
        if (node[src] <= p.hotFactor * mean || mean <= 0)
            break;

        // Coldest node, lowest index on ties.
        unsigned dst = src == 0 ? 1 : 0;
        for (unsigned b = 0; b < n_nodes; ++b)
            if (b != src && node[b] < node[dst])
                dst = b;

        // Heaviest movable partition on src whose move strictly
        // improves the pair: the destination must stay below the
        // source's pre-move load, else the hot spot just relocates
        // (and the next window would bounce it straight back).
        int pick = -1;
        for (std::size_t part = 0; part < home.size(); ++part) {
            if (home[part] != src)
                continue;
            if (part < frozen.size() && frozen[part])
                continue;
            if (loads[part] < p.minPartitionLoad)
                continue;
            if (node[dst] + loads[part] >= node[src])
                continue;
            if (pick < 0 || loads[part] > loads[pick])
                pick = int(part);
        }
        if (pick < 0)
            break;

        MigrationStep step;
        step.partition = unsigned(pick);
        step.from = src;
        step.to = dst;
        step.load = loads[pick];
        plan.push_back(step);

        home[pick] = dst;
        node[src] -= loads[pick];
        node[dst] += loads[pick];
    }
    return plan;
}

// ----------------------------------------------------------------
// BoardBalancer
// ----------------------------------------------------------------

BoardBalancer::BoardBalancer(Board &brd_, PartitionMap &map_,
                             const BalanceParams &params)
    : brd(brd_), map(map_), p(params),
      handoffCore(engineCoreOn(brd_.dpu(0).nCores())),
      track(map_.nPartitions()), inflight(map_.nPartitions(), nullptr),
      stats("board.balance")
{
    sim_assert(p.window > 0, "balancer built with window = 0");
    const std::string err = checkBalance(p);
    sim_assert(err.empty(), "%s", err.c_str());

    engines.resize(brd.nDpus());
    for (unsigned d = 0; d < brd.nDpus(); ++d) {
        soc::Soc &chip = brd.dpu(d);
        const unsigned local = handoffCore % soc::coresPerComplex;
        dms::Dms &dms = chip.dmsFor(handoffCore);
        mem::Dmem &dmem = chip.core(handoffCore).dmem();
        engines[d].exec =
            std::make_unique<dms::HandoffExec>(dms, local, dmem);
        engines[d].lander = std::make_unique<dms::HandoffLander>(
            dms, local, dmem, stats);
    }

    for (unsigned part = 0; part < map.nPartitions(); ++part)
        seedState(part, homeOf(part));
}

BoardBalancer::~BoardBalancer() = default;

std::uint8_t
BoardBalancer::statePattern(unsigned part, std::uint64_t i)
{
    return std::uint8_t(0x5A ^ (part * 131) ^ (i * 0x9E) ^ (i >> 8));
}

mem::Addr
BoardBalancer::stateAddr(unsigned part) const
{
    return stateBase + mem::Addr(part) * stateBytesPerPartition;
}

unsigned
BoardBalancer::homeOf(unsigned part) const
{
    return map.homeOf(part, brd.nDpus());
}

void
BoardBalancer::seedState(unsigned part, unsigned dpu)
{
    std::vector<std::uint8_t> img(stateBytesPerPartition);
    for (std::uint64_t i = 0; i < img.size(); ++i)
        img[i] = statePattern(part, i);
    brd.dpu(dpu).memory().store().write(stateAddr(part), img.data(),
                                        img.size());
}

std::vector<std::uint8_t>
BoardBalancer::stateImage(unsigned part) const
{
    std::vector<std::uint8_t> img(stateBytesPerPartition);
    const_cast<Board &>(brd)
        .dpu(homeOf(part))
        .memory()
        .store()
        .read(stateAddr(part), img.data(), img.size());
    return img;
}

bool
BoardBalancer::srcPoisoned(unsigned dpu) const
{
    return engines[dpu].srcPoisoned;
}

bool
BoardBalancer::migrationsActive() const
{
    for (const Migration *m : inflight)
        if (m)
            return true;
    return false;
}

bool
BoardBalancer::rolesBusy(unsigned from, unsigned to) const
{
    for (const Migration *m : inflight)
        if (m && (m->from == from || m->to == to))
            return true;
    return false;
}

void
BoardBalancer::record(unsigned part)
{
    track.record(part);
    Migration *m = inflight[part];
    if (!m)
        return;
    // Forwarding epoch: the request lands at the old home (the map
    // has not flipped); ship its delta to the new home so the moved
    // state stays current. Host-phase send — deterministic, and the
    // delivery tick is at least one hop into the next segment.
    ++forwarded;
    deltaBytes += deltaBytesPerRequest;
    bool dropped = false;
    brd.fabric().send(m->from, m->to, deltaBytesPerRequest,
                      sim::Traffic::Migration, [] {}, dropped);
    if (dropped)
        ++deltaDropped; // deltas are best-effort
}

void
BoardBalancer::launch(const MigrationStep &step, sim::Tick boundary)
{
    auto owned = std::make_unique<Migration>();
    Migration &m = *owned;
    m.part = step.partition;
    m.from = step.from;
    m.to = step.to;
    m.launchedAt = boundary;
    m.plan = dms::planRangeHandoff(stateAddr(m.part),
                                   stateBytesPerPartition,
                                   dms::stagingBufBytes, 8);
    m.chunks = unsigned(m.plan.chunks.size());
    m.gen = engines[m.to].lander->expect(m.chunks);

    inflight[m.part] = &m;
    ++planned;
    // The outcome cells report from the first launch on, zero or
    // not.
    committed.add(0);
    aborted.add(0);
    stateBytes.add(0);

    // Execution starts inside the kernel, on the source partition.
    brd.eventQueue(m.from).schedule(
        boundary, [this, mp = &m] { srcStart(*mp); },
        sim::EvTag::Link);
    migrations.push_back(std::move(owned));
}

void
BoardBalancer::srcStart(Migration &m)
{
    engines[m.from].exec->start(
        m.plan, [this, mp = &m](unsigned chunk, bool error) {
            onChunkStaged(*mp, chunk, error);
        });
}

void
BoardBalancer::onChunkStaged(Migration &m, unsigned chunk,
                             bool error)
{
    dms::HandoffExec &exec = *engines[m.from].exec;
    if (error) {
        // dms.descError: the buffer is garbage. Keep draining the
        // chain (every chunk must be released) but ship nothing
        // more; the migration aborts once the engines empty.
        m.srcFailed = true;
        exec.release(chunk);
        return;
    }
    // Snapshot the staged bytes before releasing the buffer to the
    // chain (the next descriptor overwrites it).
    const dms::HandoffChunk &hc = m.plan.chunks[chunk];
    auto payload = std::make_shared<std::vector<std::uint8_t>>(
        hc.bytes());
    brd.dpu(m.from).core(handoffCore).dmem().read(
        dms::execBufBase + (chunk & 1) * dms::stagingBufBytes,
        payload->data(), payload->size());
    exec.release(chunk);
    ship(m, chunk, std::move(payload), 1 + dmaRetries);
}

void
BoardBalancer::ship(Migration &m, unsigned chunk,
                    std::shared_ptr<std::vector<std::uint8_t>>
                        payload,
                    unsigned attempts)
{
    if (m.srcFailed)
        return; // a sibling chunk exhausted its retries; give up
    const mem::Addr ddr = m.plan.chunks[chunk].ddrAddr;
    const std::uint8_t width = m.plan.chunks[chunk].colWidth;
    bool dropped = false;
    const sim::Tick at = brd.fabric().send(
        m.from, m.to, payload->size(), sim::Traffic::Migration,
        [this, mp = &m, chunk, ddr, width, payload] {
            engines[mp->to].lander->deliver(mp->gen, chunk, ddr,
                                            *payload, width);
        },
        dropped);
    if (!dropped)
        return;
    ++m.srcRetries;
    if (attempts <= 1) {
        m.srcFailed = true; // retransmit budget exhausted
        return;
    }
    // Retransmit from the snapshot once the wire time is burned.
    brd.eventQueue(m.from).schedule(
        at,
        [this, mp = &m, chunk, payload = std::move(payload),
         attempts] { ship(*mp, chunk, payload, attempts - 1); },
        sim::EvTag::Link);
}

void
BoardBalancer::harvest(sim::Tick boundary)
{
    // Partition order. Each settle touches only its own partition,
    // its source's src role and its destination's dst role, and no
    // two in-flight migrations share a role, so the order is free.
    for (Migration *&slot : inflight) {
        if (!slot)
            continue;
        Migration &m = *slot;
        Engines &se = engines[m.from];
        Engines &de = engines[m.to];
        dms::HandoffLander &lander = *de.lander;

        if (!m.srcFailed && lander.landed() == m.chunks) {
            // Commit: every chunk landed in the destination DDR.
            // Flip the single partition; offers forwarded from now
            // on route to the new home.
            map.reassign(m.part, m.to);
            ++committed;
            stateBytes += m.plan.totalBytes();
        } else if (boundary >= m.launchedAt + migrationTimeout) {
            // A wedged DMAC never completes its descriptor: the
            // staging chain (or the landing slot) is stuck for
            // good. Poison the involved engine roles so no later
            // plan touches them; the partition stays home.
            lander.cancel();
            se.srcPoisoned = true;
            de.dstPoisoned = true;
            ++aborted;
            ++timeoutAborts;
        } else if (m.srcFailed && !se.exec->active() &&
                   !lander.busy()) {
            // Clean abort: retransmits exhausted (or a descError
            // poisoned the staging chain) and both engines have
            // drained. The partition stays home; the planner may
            // retry it next window.
            lander.cancel();
            ++aborted;
        } else {
            continue; // still staging, shipping or landing
        }
        if (m.srcRetries)
            chunkRetries += m.srcRetries;
        slot = nullptr;
    }
}

void
BoardBalancer::onWindowBoundary(sim::Tick boundary)
{
    harvest(boundary);
    track.roll(p.ewmaAlpha);
    if (draining)
        return;

    // Plan on a copy of the homes (the map only flips at commit);
    // a partition in flight may not move again.
    std::vector<unsigned> homes = map.homes(brd.nDpus());
    std::vector<bool> frozen(inflight.size());
    for (unsigned part = 0; part < inflight.size(); ++part)
        frozen[part] = inflight[part] != nullptr;
    const std::vector<MigrationStep> steps = planMigrations(
        track.loads(), homes, brd.nDpus(), p, frozen);
    for (const MigrationStep &s : steps) {
        // One hand-off per engine role: a launch earlier in this
        // loop holds its roles too.
        if (rolesBusy(s.from, s.to) || engines[s.from].srcPoisoned ||
            engines[s.to].dstPoisoned)
            continue; // engine role occupied; retry next window
        if (brd.dpu(s.from).dmsFor(handoffCore).dmac().hung() ||
            brd.dpu(s.to).dmsFor(handoffCore).dmac().hung())
            continue; // wedged DMAC cannot run a hand-off
        launch(s, boundary);
    }
}

BoardBalancer::Report
BoardBalancer::report() const
{
    Report r;
    r.planned = planned.value();
    r.committed = committed.value();
    r.aborted = aborted.value();
    r.timeoutAborts = timeoutAborts.value();
    r.chunkRetries = chunkRetries.value();
    r.forwarded = forwarded.value();
    r.deltaBytes = deltaBytes.value();
    r.deltaDropped = deltaDropped.value();
    r.stateBytes = stateBytes.value();
    return r;
}

} // namespace dpu::board
