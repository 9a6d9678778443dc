#include "host/router.hh"

#include "host/offload.hh"
#include "sim/logging.hh"
#include "util/crc32.hh"

namespace dpu::host {

void
Router::candidates(const RouteInfo &req, unsigned nShards,
                   std::vector<unsigned> &out)
{
    out.push_back(route(req, nShards));
}

std::uint32_t
routeHash(const RouteInfo &req)
{
    // FNV over the app name, CRC-folded with the 64-bit key (the
    // explicit placement key when present, the request seed
    // otherwise). Bit-identical to the PR-5 BoardScheduler mix for
    // keyless requests, which the board goldens pin.
    const std::uint64_t k = req.hasKey ? req.key : req.seed;
    std::uint32_t h = 2166136261u;
    for (char ch : req.app)
        h = (h ^ std::uint8_t(ch)) * 16777619u;
    h = util::crc32Key(h ^ std::uint32_t(k));
    h = util::crc32Key(h ^ std::uint32_t(k >> 32));
    return h;
}

RouteInfo
routeInfoOf(const JobRequest &req)
{
    RouteInfo info;
    info.app = req.app;
    info.seed = req.seed;
    return info;
}

namespace {

class HashRouter final : public Router
{
  public:
    unsigned
    route(const RouteInfo &req, unsigned nShards) override
    {
        return routeHash(req) % nShards;
    }
};

class RoundRobinRouter final : public Router
{
  public:
    unsigned
    route(const RouteInfo &, unsigned nShards) override
    {
        const unsigned d = next % nShards;
        next = (next + 1) % nShards;
        return d;
    }

  private:
    unsigned next = 0;
};

class ReplicaGroupRouter final : public Router
{
  public:
    explicit ReplicaGroupRouter(unsigned r) : replication(r)
    {
        sim_assert(r >= 1,
                   "replica-group router: replication must be >= 1");
    }

    unsigned
    route(const RouteInfo &req, unsigned nShards) override
    {
        return routeHash(req) % nShards;
    }

    void
    candidates(const RouteInfo &req, unsigned nShards,
               std::vector<unsigned> &out) override
    {
        const unsigned g = routeHash(req) % nShards;
        const unsigned r =
            replication < nShards ? replication : nShards;
        for (unsigned i = 0; i < r; ++i)
            out.push_back((g + i) % nShards);
    }

  private:
    unsigned replication;
};

} // namespace

PartitionRouter::PartitionRouter(unsigned n_partitions,
                                 unsigned replication)
    : nParts(n_partitions), repl(replication),
      overrides(n_partitions, -1), replicaSets(n_partitions)
{
    sim_assert(n_partitions >= 1,
               "partition router: needs at least one partition");
    sim_assert(replication >= 1,
               "partition router: replication must be >= 1");
}

unsigned
PartitionRouter::defaultHomeOf(unsigned partition,
                               unsigned nShards) const
{
    // The exact replica-group mix: FNV over an empty app name
    // CRC-folded with the partition index, so a map with no
    // reassignments routes bit-identically to the PR-7 policy.
    RouteInfo info;
    info.key = partition;
    info.hasKey = true;
    return routeHash(info) % nShards;
}

unsigned
PartitionRouter::homeOf(unsigned partition, unsigned nShards) const
{
    sim_assert(partition < nParts,
               "partition %u outside the map (%u partitions)",
               partition, nParts);
    const std::vector<unsigned> &rs = replicaSets[partition];
    if (!rs.empty()) {
        sim_assert(rs[0] < nShards,
                   "partition %u replica set names shard %u of %u",
                   partition, rs[0], nShards);
        return rs[0];
    }
    const std::int32_t o = overrides[partition];
    if (o >= 0) {
        sim_assert(unsigned(o) < nShards,
                   "partition %u re-homed onto shard %d of %u",
                   partition, o, nShards);
        return unsigned(o);
    }
    return defaultHomeOf(partition, nShards);
}

void
PartitionRouter::reassign(unsigned partition, unsigned shard)
{
    sim_assert(partition < nParts,
               "partition %u outside the map (%u partitions)",
               partition, nParts);
    overrides[partition] = std::int32_t(shard);
    // A pinned replica set stays authoritative for candidates():
    // re-homing promotes @p shard to its front so routing and
    // failover order agree.
    std::vector<unsigned> &rs = replicaSets[partition];
    if (!rs.empty()) {
        for (auto it = rs.begin(); it != rs.end(); ++it) {
            if (*it == shard) {
                rs.erase(it);
                break;
            }
        }
        rs.insert(rs.begin(), shard);
    }
}

void
PartitionRouter::setReplicas(unsigned partition,
                             std::vector<unsigned> shards)
{
    sim_assert(partition < nParts,
               "partition %u outside the map (%u partitions)",
               partition, nParts);
    sim_assert(!shards.empty(),
               "partition %u: an explicit replica set needs at "
               "least one shard",
               partition);
    for (std::size_t i = 0; i < shards.size(); ++i)
        for (std::size_t j = i + 1; j < shards.size(); ++j)
            sim_assert(shards[i] != shards[j],
                       "partition %u: shard %u listed twice in its "
                       "replica set",
                       partition, shards[i]);
    replicaSets[partition] = std::move(shards);
}

bool
PartitionRouter::reassigned(unsigned partition) const
{
    sim_assert(partition < nParts,
               "partition %u outside the map (%u partitions)",
               partition, nParts);
    return overrides[partition] >= 0;
}

unsigned
PartitionRouter::reassignedCount() const
{
    unsigned n = 0;
    for (std::int32_t o : overrides)
        n += o >= 0;
    return n;
}

unsigned
PartitionRouter::route(const RouteInfo &req, unsigned nShards)
{
    sim_assert(req.hasKey, "partition router needs an explicit key");
    return homeOf(unsigned(req.key), nShards);
}

void
PartitionRouter::candidates(const RouteInfo &req, unsigned nShards,
                            std::vector<unsigned> &out)
{
    sim_assert(req.hasKey, "partition router needs an explicit key");
    const unsigned partition = unsigned(req.key);
    const std::vector<unsigned> &rs = replicaSets[partition];
    if (!rs.empty()) {
        // Repair pinned this partition's failover order explicitly
        // (dead boards evicted, re-replicated copies appended).
        for (unsigned s : rs) {
            sim_assert(s < nShards,
                       "partition %u replica set names shard %u of "
                       "%u",
                       partition, s, nShards);
            out.push_back(s);
        }
        return;
    }
    const unsigned primary = homeOf(partition, nShards);
    const unsigned g = defaultHomeOf(partition, nShards);
    const unsigned r = repl < nShards ? repl : nShards;
    out.push_back(primary);
    // Failover falls back onto the default group, so a re-homed
    // partition keeps the same replica width: the new home plus
    // the strongest prefix of its original group.
    for (unsigned i = 0; i < r && out.size() < r; ++i) {
        const unsigned c = (g + i) % nShards;
        if (c != primary)
            out.push_back(c);
    }
}

std::unique_ptr<PartitionRouter>
makePartitionRouter(unsigned n_partitions, unsigned replication)
{
    return std::make_unique<PartitionRouter>(n_partitions,
                                             replication);
}

std::unique_ptr<Router>
makeHashRouter()
{
    return std::make_unique<HashRouter>();
}

std::unique_ptr<Router>
makeRoundRobinRouter()
{
    return std::make_unique<RoundRobinRouter>();
}

std::unique_ptr<Router>
makeReplicaGroupRouter(unsigned replication)
{
    return std::make_unique<ReplicaGroupRouter>(replication);
}

} // namespace dpu::host
