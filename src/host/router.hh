/**
 * @file
 * The board's routing policy for requests without a key.
 *
 * BoardScheduler::enqueueAt() sends a request to the DPU its
 * (app, seed) hashes to: board::placementHash, the mix both tiers'
 * PartitionMaps home partitions with. Keyed requests route through
 * a board::PartitionMap instead.
 *
 * Determinism contract: route() is a pure function of (request,
 * nShards), so a fixed enqueue order yields a fixed assignment
 * whatever thread count the simulation later runs at. It never
 * consults wall clock, global RNGs, or the fault plane.
 */

#ifndef DPU_HOST_ROUTER_HH
#define DPU_HOST_ROUTER_HH

#include <memory>

namespace dpu::host {

struct JobRequest;

/** Hash routing over (app, seed). */
class Router
{
  public:
    /** The shard @p req lands on: placementHash(app, seed) %
     *  @p nShards. */
    unsigned route(const JobRequest &req, unsigned nShards) const;
};

/** The router BoardScheduler's constructor takes. */
std::unique_ptr<Router> makeHashRouter();

} // namespace dpu::host

#endif // DPU_HOST_ROUTER_HH
