#include "host/board_offload.hh"

#include <algorithm>

#include "host/summary.hh"
#include "sim/logging.hh"

namespace dpu::host {

BoardScheduler::BoardScheduler(board::Board &b,
                               OffloadParams per_dpu,
                               std::unique_ptr<Router> router_)
    : brd(b), router(std::move(router_)),
      parts(b.params().balance.keyPartitions, 1)
{
    sim_assert(router, "BoardScheduler needs a router");
    const std::string prefix = per_dpu.statName;
    shards.reserve(b.nDpus());
    for (unsigned d = 0; d < b.nDpus(); ++d) {
        OffloadParams p = per_dpu;
        p.statName = prefix + ".dpu" + std::to_string(d);
        shards.push_back(
            std::make_unique<OffloadScheduler>(b.dpu(d), std::move(p)));
    }

    // The key-partition map exists for every board (so the static
    // and balanced paths route offers identically); the balancer
    // only when the topology turned it on.
    const board::BalanceParams &bal = b.params().balance;
    if (bal.window > 0) {
        const unsigned engine = board::engineCoreOn(b.dpu(0).nCores());
        sim_assert(per_dpu.nCores <= engine,
                   "the balancer's engine core %u must not be "
                   "managed by the offload scheduler (nCores %u)",
                   engine, per_dpu.nCores);
        balancer_ =
            std::make_unique<board::BoardBalancer>(b, parts, bal);
    }
}

unsigned
BoardScheduler::route(const JobRequest &req) const
{
    return router->route(req, nShards());
}

void
BoardScheduler::enqueueAt(sim::Tick when, JobRequest req)
{
    shards[route(req)]->enqueueAt(when, std::move(req));
}

void
BoardScheduler::start()
{
    for (auto &s : shards)
        s->start();
}

unsigned
BoardScheduler::partitionOf(std::uint64_t key) const
{
    return unsigned(key % parts.nPartitions());
}

void
BoardScheduler::offer(sim::Tick when, std::uint64_t key,
                      JobRequest req)
{
    sim_assert(!ran, "offer() after run()");
    offers.push_back({when, key, std::move(req)});
}

sim::Tick
BoardScheduler::run()
{
    sim_assert(!ran, "BoardScheduler::run() is one-shot");
    ran = true;
    // Offers usually come time-ordered; sorting those anyway moves
    // every request through the merge passes for nothing.
    const auto earlier = [](const Offer &a, const Offer &b) {
        return a.when < b.when;
    };
    if (!std::is_sorted(offers.begin(), offers.end(), earlier))
        std::stable_sort(offers.begin(), offers.end(), earlier);

    // Each offer moves on to its shard's arrival queue and is
    // freed here as it goes.
    const auto forward = [&] {
        Offer &o = offers.front();
        const unsigned part = partitionOf(o.key);
        if (balancer_)
            balancer_->record(part);
        shards[parts.homeOf(part, nShards())]->enqueueAt(
            o.when, std::move(o.req));
        offers.pop_front();
    };

    if (!balancer_) {
        // Static placement: no window needs a host-phase decision,
        // so forward everything up front and run the board to
        // completion in one run.
        while (!offers.empty())
            forward();
        start();
        return brd.run();
    }

    // Balanced: window-sized segments. Each iteration forwards the
    // window's offers to their partitions' CURRENT homes (host
    // phase, clocks parked; each forward wakes its shard's blocked
    // A9 at the offer's tick), runs the kernel to the boundary,
    // then lets the balancer harvest/plan/launch. Migrations execute
    // inside subsequent segments; commits flip the partition map
    // between them. Termination: once offers are exhausted the
    // balancer is draining (no new plans) and every in-flight
    // migration either commits, aborts, or hits its timeout bound.
    const sim::Tick window = brd.params().balance.window;
    for (auto &s : shards)
        s->holdOpen();
    start();

    sim::Tick boundary = brd.now() + window;
    for (;;) {
        while (!offers.empty() && offers.front().when < boundary)
            forward();
        brd.runFor(boundary - brd.now());
        if (offers.empty())
            balancer_->setDraining(true);
        balancer_->onWindowBoundary(boundary);
        if (offers.empty() && !balancer_->migrationsActive())
            break;
        boundary += window;
    }

    for (auto &s : shards)
        s->close();
    return brd.run();
}

ServingSummary
BoardScheduler::summary() const
{
    SummaryFold fold;
    for (const auto &s : shards)
        fold.add(s->summary(), s->jobs());
    return fold.finish();
}

} // namespace dpu::host
