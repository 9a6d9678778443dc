/**
 * @file
 * A rack of multi-DPU boards behind one front-end.
 *
 * The paper deployed 500+ DPUs behind an Infiniband fabric but
 * evaluated one SoC; the board tier (DESIGN.md §12-13) composed
 * chips into a board, and the Rack composes boards into the
 * cluster the deployment section describes. Each board is a full
 * board::Board — its own event-kernel partitions, link fabric and
 * epoch runner — and the boards are joined only by the host-phase
 * RackNet (rack/net.hh) plus the static placement decisions of
 * rack::RackScheduler.
 *
 * Determinism. Boards never exchange simulated traffic with each
 * other mid-run: all cross-board interaction happens at admission
 * time, in the host phase, before any board advances. run()
 * therefore advances the boards sequentially in board order, each
 * under its own (possibly multi-threaded) epoch runner, and the
 * whole rack schedule is the composition of N independently
 * bit-deterministic board schedules — identical at every --threads
 * count and under seeded fault replay, exactly as the board tier
 * guarantees per board.
 *
 * All boards share the process-wide fault/trace domains [0,
 * dpusPerBoard): domain d is "DPU d of the currently running
 * board". Because boards run in a fixed order, each domain's
 * streams are consumed in a fixed order too, so replay holds; the
 * cost is that fault streams are correlated across boards at equal
 * DPU index, which chaos coverage does not care about.
 */

#ifndef DPU_RACK_RACK_HH
#define DPU_RACK_RACK_HH

#include <memory>
#include <vector>

#include "board/board.hh"
#include "rack/net.hh"

namespace dpu::topo {
class ClusterTopology;
}

namespace dpu::rack {

/** Rack shape: N identical boards, filled in by
 *  topo::ClusterTopology. */
struct RackParams
{
    unsigned nBoards = 2;
    /** Per-board shape (chips, epoch-runner threads). */
    board::BoardParams board{};
};

/** N boards joined by a host-phase rack network. Built only by
 *  topo::ClusterTopology, which validates the shape first. */
class Rack
{
  public:
    unsigned nBoards() const { return unsigned(boards.size()); }
    unsigned nDpus() const { return nBoards() * p.board.nDpus; }

    board::Board &board(unsigned b) { return *boards[b]; }
    const board::Board &board(unsigned b) const
    {
        return *boards[b];
    }

    RackNet &net() { return network; }

    /**
     * Run every board until it drains, in board order. @return the
     * rack end tick: the latest board's final tick (all boards
     * started from tick 0, so per-board clocks are directly
     * comparable).
     */
    sim::Tick run();

    /** Latest board end tick so far (valid after run()). */
    sim::Tick now() const { return rackNow; }

    double seconds() const { return double(rackNow) * 1e-12; }

    /** True when every board drained every started kernel. */
    bool allFinished() const;

  private:
    friend class topo::ClusterTopology;

    explicit Rack(const RackParams &params);

    RackParams p;
    RackNet network;
    std::vector<std::unique_ptr<board::Board>> boards;
    sim::Tick rackNow = 0;
};

} // namespace dpu::rack

#endif // DPU_RACK_RACK_HH
