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
    // FNV over the app name, CRC-folded with the 64-bit seed: the
    // board tier's original mix, which the board goldens pin.
    std::uint32_t h = 2166136261u;
    for (char ch : req.app)
        h = (h ^ std::uint8_t(ch)) * 16777619u;
    h = util::crc32Key(h ^ std::uint32_t(req.seed));
    h = util::crc32Key(h ^ std::uint32_t(req.seed >> 32));
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
