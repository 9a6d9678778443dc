#include "host/router.hh"

#include "board/balance.hh"
#include "host/offload.hh"

namespace dpu::host {

unsigned
Router::route(const JobRequest &req, unsigned nShards) const
{
    return board::placementHash(req.app, req.seed) % nShards;
}

std::unique_ptr<Router>
makeHashRouter()
{
    return std::make_unique<Router>();
}

} // namespace dpu::host
