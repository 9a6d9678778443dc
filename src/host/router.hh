/**
 * @file
 * Pluggable request-routing policies shared by the board and rack
 * schedulers.
 *
 * The board and rack tiers need several routing shapes (hash,
 * round-robin, replica groups with ordered failover candidates), so
 * the policy is an interface. A Router maps a request onto one of
 * nShards targets — DPUs under BoardScheduler, boards under
 * rack::RackScheduler — and can enumerate an ordered candidate list
 * for policies that support failover.
 *
 * Determinism contract: route() must be a pure function of
 * (request, nShards, prior route() calls on the same instance).
 * Stateful policies (round-robin) advance only on route(), so a
 * fixed enqueue order yields a fixed assignment whatever thread
 * count the simulation later runs at. Policies never consult wall
 * clock, global RNGs, or the fault plane.
 */

#ifndef DPU_HOST_ROUTER_HH
#define DPU_HOST_ROUTER_HH

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

namespace dpu::host {

struct JobRequest;

/** The routing-relevant slice of a request. */
struct RouteInfo
{
    /** Registered app name. */
    std::string_view app;
    /** Per-request seed (dataset variation). */
    std::uint64_t seed = 0;
    /**
     * Explicit placement key (rack tier: the user/row key). When
     * absent (hasKey = false), key-hash policies fall back to the
     * (app, seed) mix the board tier has always used.
     */
    std::uint64_t key = 0;
    bool hasKey = false;
};

/** One routing policy instance. */
class Router
{
  public:
    virtual ~Router() = default;

    /** The shard @p req lands on, in [0, nShards). May advance
     *  internal state (round-robin's cursor). */
    virtual unsigned route(const RouteInfo &req,
                           unsigned nShards) = 0;

    /**
     * Ordered failover candidates for @p req, primary first.
     * Policies without replica structure append route() alone.
     * Must NOT advance internal state beyond one route() step.
     */
    virtual void candidates(const RouteInfo &req, unsigned nShards,
                            std::vector<unsigned> &out);
};

/**
 * The deterministic (app, seed) mix the board tier shipped with:
 * FNV over the app name, CRC-folded with the seed halves. An
 * explicit key replaces the seed in the mix.
 */
std::unique_ptr<Router> makeHashRouter();

/** Arrival-order striping; fair by construction. */
std::unique_ptr<Router> makeRoundRobinRouter();

/**
 * Replica-group routing (the rack placement policy): the key hash
 * selects a group of @p replication consecutive shards
 * {g, g+1, ... mod nShards}; route() returns the group leader and
 * candidates() the whole group in failover order. Group membership
 * is a pure function of the key and nShards — independent of
 * replication, which only widens the candidate list.
 */
std::unique_ptr<Router>
makeReplicaGroupRouter(unsigned replication);

/**
 * Partition-mapped replica routing with live reassignment — the
 * rack tier's self-balancing policy. The request key is a
 * partition index in [0, nPartitions); every partition starts at
 * its hash home (bit-identical to makeReplicaGroupRouter over the
 * same keys, so static racks keep their goldens) and reassign()
 * re-homes a single partition, which is the migration engine's
 * commit hook. candidates() preserves failover order: the current
 * home first, then the partition's default replica group (minus
 * the home), clamped to the replication width.
 *
 * The mutable map does not break the Router determinism contract:
 * reassign() is only ever called from the host phase in trace
 * order, so the route of request i is still a pure function of the
 * trace prefix [0, i].
 */
class PartitionRouter final : public Router
{
  public:
    PartitionRouter(unsigned n_partitions, unsigned replication);

    unsigned route(const RouteInfo &req, unsigned nShards) override;
    void candidates(const RouteInfo &req, unsigned nShards,
                    std::vector<unsigned> &out) override;

    unsigned nPartitions() const { return nParts; }
    unsigned replicationWidth() const { return repl; }

    /** @p partition's hash home (ignores reassignments). */
    unsigned defaultHomeOf(unsigned partition,
                           unsigned nShards) const;

    /** @p partition's current home. */
    unsigned homeOf(unsigned partition, unsigned nShards) const;

    /** Migration hook: re-home @p partition onto @p shard. */
    void reassign(unsigned partition, unsigned shard);

    /** True when @p partition has been moved off its hash home. */
    bool reassigned(unsigned partition) const;

    /** Partitions currently living away from their hash home. */
    unsigned reassignedCount() const;

    /**
     * Repair hook: pin @p partition's full failover order to
     * @p shards (primary first; must be non-empty, deduplicated).
     * Overrides the default hash-group candidate list from then on;
     * homeOf()/route() report shards[0]. The rack repair controller
     * uses this to evict a dead board from a partition's replica set
     * and to record the re-replicated copy's new location.
     */
    void setReplicas(unsigned partition,
                     std::vector<unsigned> shards);

  private:
    unsigned nParts;
    unsigned repl;
    /** Per-partition home override; -1 = the hash home. */
    std::vector<std::int32_t> overrides;
    /** Per-partition explicit failover order; empty = hash group. */
    std::vector<std::vector<unsigned>> replicaSets;
};

/** A fresh all-default partition map (see PartitionRouter). */
std::unique_ptr<PartitionRouter>
makePartitionRouter(unsigned n_partitions, unsigned replication);

/** The stable placement hash every key policy shares: a pure
 *  function of (app, seed/key), identical to the PR-5 board mix. */
std::uint32_t routeHash(const RouteInfo &req);

/** Routing slice of a full request (board tier: no explicit key). */
RouteInfo routeInfoOf(const JobRequest &req);

} // namespace dpu::host

#endif // DPU_HOST_ROUTER_HH
