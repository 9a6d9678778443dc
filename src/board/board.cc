#include "board/board.hh"

#include "sim/domain.hh"
#include "sim/logging.hh"

namespace dpu::board {

namespace {

/** One partition per DPU, each on its own allocation so workers
 *  never share a queue's cache lines. */
std::vector<std::unique_ptr<sim::EventQueue>>
makeQueues(unsigned n)
{
    std::vector<std::unique_ptr<sim::EventQueue>> qs;
    for (unsigned d = 0; d < n; ++d)
        qs.push_back(std::make_unique<sim::EventQueue>());
    return qs;
}

std::vector<sim::EventQueue *>
partitions(const std::vector<std::unique_ptr<sim::EventQueue>> &qs)
{
    std::vector<sim::EventQueue *> out;
    for (const auto &q : qs)
        out.push_back(q.get());
    return out;
}

} // namespace

Board::Board(const BoardParams &params)
    : p(params), queues(makeQueues(p.nDpus)),
      // The largest window that keeps cross-chip delivery
      // conservative.
      runner(partitions(queues), {p.threads, linkHopLatency}),
      link(runner)
{
    dpus.reserve(p.nDpus);
    for (unsigned d = 0; d < p.nDpus; ++d)
        dpus.push_back(std::make_unique<soc::Soc>(*queues[d], p.soc));
    for (unsigned d = 0; d < p.nDpus; ++d) {
        bulkRetries.emplace_back(link.statGroup(), "bulkRetries");
        bulkFailed.emplace_back(link.statGroup(), "bulkFailed");
    }
}

sim::Tick
Board::now() const
{
    // Inside an event, the executing partition's clock; in the host
    // phase every partition sits on the aligned board tick.
    return queues[sim::currentDomain()]->now();
}

sim::Tick
Board::run()
{
    return runner.run();
}

sim::Tick
Board::runFor(sim::Tick limit)
{
    return runner.run(now() + limit);
}

bool
Board::allFinished() const
{
    for (const auto &d : dpus)
        if (!d->allFinished())
            return false;
    return true;
}

const sim::EpochRunner::Stats &
Board::runnerStats() const
{
    return runner.stats();
}

unsigned
Board::runnerThreads() const
{
    return runner.workers();
}

void
Board::dma(unsigned src_dpu, mem::Addr src_addr, unsigned dst_dpu,
           mem::Addr dst_addr, std::uint64_t bytes,
           std::function<void(bool ok)> done)
{
    sim_assert(src_dpu < nDpus() && dst_dpu < nDpus() &&
                   src_dpu != dst_dpu,
               "bad DMA route %u -> %u", src_dpu, dst_dpu);
    sim_assert(runner.onPartition(src_dpu),
               "dma %u -> %u issued from another chip's partition",
               src_dpu, dst_dpu);
    auto buf = std::make_shared<std::vector<std::uint8_t>>(bytes);
    dpus[src_dpu]->memory().store().read(src_addr, buf->data(),
                                         bytes);
    dmaAttempt(src_dpu, dst_dpu, dst_addr, std::move(buf),
               std::move(done), 1 + dmaRetries);
}

void
Board::dmaAttempt(unsigned src_dpu, unsigned dst_dpu,
                  mem::Addr dst_addr,
                  std::shared_ptr<std::vector<std::uint8_t>> buf,
                  std::function<void(bool ok)> done,
                  unsigned attempts)
{
    // Runs on the source chip (issue context or a retry event), so
    // the fate is known immediately and everything that follows is
    // a plain schedule: the byte copy rides the fabric to the
    // destination partition, completion and retries stay on the
    // source partition at the delivery tick — exactly when the old
    // shared-queue delivery event would have run them.
    bool dropped = false;
    const sim::Tick arrive = link.send(
        src_dpu, dst_dpu, buf->size(), sim::Traffic::Workload,
        [this, dst_dpu, dst_addr, buf] {
            dpus[dst_dpu]->memory().store().write(
                dst_addr, buf->data(), buf->size());
        },
        dropped);
    if (!dropped) {
        if (done)
            queues[src_dpu]->schedule(
                arrive, [done = std::move(done)] { done(true); },
                sim::EvTag::Link);
        return;
    }
    if (attempts > 1) {
        ++bulkRetries[src_dpu];
        queues[src_dpu]->schedule(
            arrive,
            [this, src_dpu, dst_dpu, dst_addr, buf = std::move(buf),
             done = std::move(done), attempts]() mutable {
                dmaAttempt(src_dpu, dst_dpu, dst_addr,
                           std::move(buf), std::move(done),
                           attempts - 1);
            },
            sim::EvTag::Link);
        return;
    }
    ++bulkFailed[src_dpu];
    if (done)
        queues[src_dpu]->schedule(
            arrive, [done = std::move(done)] { done(false); },
            sim::EvTag::Link);
}

} // namespace dpu::board
