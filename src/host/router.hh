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
 * FNV over the app name, CRC-folded with the seed halves.
 */
std::unique_ptr<Router> makeHashRouter();

/** Arrival-order striping; fair by construction. */
std::unique_ptr<Router> makeRoundRobinRouter();

/**
 * Replica-group routing: the request hash selects a group of
 * @p replication consecutive shards {g, g+1, ... mod nShards};
 * route() returns the group leader and candidates() the whole group
 * in failover order. Group membership is a pure function of the
 * request and nShards — independent of replication, which only
 * widens the candidate list. board::PartitionMap's hash groups
 * follow the same law.
 */
std::unique_ptr<Router>
makeReplicaGroupRouter(unsigned replication);

/** The stable placement hash every hash policy shares: a pure
 *  function of (app, seed), the board tier's original mix. */
std::uint32_t routeHash(const RouteInfo &req);

/** Routing slice of a full request. */
RouteInfo routeInfoOf(const JobRequest &req);

} // namespace dpu::host

#endif // DPU_HOST_ROUTER_HH
