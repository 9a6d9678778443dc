#include "topo/topology.hh"

#include "sim/logging.hh"

namespace dpu::topo {

const char *
tierName(Tier t)
{
    switch (t) {
      case Tier::Soc:
        return "soc";
      case Tier::Board:
        return "board";
      case Tier::Rack:
        return "rack";
    }
    return "?";
}

ClusterTopology
ClusterTopology::soc()
{
    ClusterTopology t(Tier::Soc);
    t.nBoards_ = 1;
    t.nDpus_ = 1;
    return t;
}

ClusterTopology
ClusterTopology::board(unsigned n_dpus)
{
    ClusterTopology t(Tier::Board);
    t.nBoards_ = 1;
    t.nDpus_ = n_dpus;
    return t;
}

ClusterTopology
ClusterTopology::rack(unsigned n_boards, unsigned dpus_per_board)
{
    ClusterTopology t(Tier::Rack);
    t.nBoards_ = n_boards;
    t.nDpus_ = dpus_per_board;
    return t;
}

ClusterTopology &
ClusterTopology::chip(const soc::SocParams &p)
{
    soc_ = p;
    return *this;
}

ClusterTopology &
ClusterTopology::placement(const rack::PlacementParams &p)
{
    place_ = p;
    return *this;
}

ClusterTopology &
ClusterTopology::boardBalance(const board::BalanceParams &p)
{
    boardBal_ = p;
    return *this;
}

ClusterTopology &
ClusterTopology::threads(unsigned n)
{
    threads_ = n;
    return *this;
}

std::string
ClusterTopology::validate() const
{
    if (nDpus_ == 0)
        return "a " + std::string(tierName(tier_)) +
               " needs at least one DPU per board "
               "(dpusPerBoard = 0)";
    if (tier_ == Tier::Soc && nDpus_ != 1)
        return "a soc is exactly one DPU; use "
               "ClusterTopology::board() for " +
               std::to_string(nDpus_) + " chips";
    if (tier_ == Tier::Rack && nBoards_ == 0)
        return "a rack needs at least one board (nBoards = 0)";

    if (soc_.nComplexes == 0)
        return "the chip needs at least one core complex "
               "(nComplexes = 0)";
    if (soc_.ddrBytes > mem::dmemBase)
        return "the chip's DDR runs into the DMEM apertures at byte " +
               std::to_string(mem::dmemBase) +
               " (SocParams.ddrBytes is " +
               std::to_string(soc_.ddrBytes) + ")";

    if (threads_ == 0)
        return "the epoch runner needs at least one worker "
               "thread (threads = 0)";

    if (tier_ == Tier::Soc)
        return "";

    if (tier_ == Tier::Rack && boardBal_.window)
        return "a rack balances through placement.balance, so "
               "boardBalance must stay off on a rack "
               "(BalanceParams.window = " +
               std::to_string(boardBal_.window) + ")";
    if (std::string err = board::checkBalance(boardBal_); !err.empty())
        return err;
    if (tier_ == Tier::Rack)
        return rack::checkPlacement(place_, nBoards_);

    const std::uint64_t stateEnd =
        board::stateBase + std::uint64_t(boardBal_.keyPartitions) *
                               board::stateBytesPerPartition;
    if (boardBal_.window && stateEnd > soc_.ddrBytes)
        return "the board balancer's state for keyPartitions " +
               std::to_string(boardBal_.keyPartitions) +
               " ends at byte " + std::to_string(stateEnd) +
               ", past the chip's DDR (SocParams.ddrBytes is " +
               std::to_string(soc_.ddrBytes) + ")";
    return "";
}

board::BoardParams
ClusterTopology::boardParams() const
{
    board::BoardParams p;
    p.nDpus = nDpus_;
    p.soc = soc_;
    p.threads = threads_;
    p.balance = boardBal_;
    return p;
}

void
ClusterTopology::require(Tier want) const
{
    sim_assert(tier_ == want,
               "build mismatch: this is a %s topology, not a %s",
               tierName(tier_), tierName(want));
    const std::string err = validate();
    sim_assert(err.empty(), "invalid topology: %s", err.c_str());
}

std::unique_ptr<soc::Soc>
ClusterTopology::buildSoc(sim::EventQueue &q) const
{
    require(Tier::Soc);
    return std::make_unique<soc::Soc>(q, soc_);
}

std::unique_ptr<board::Board>
ClusterTopology::buildBoard() const
{
    require(Tier::Board);
    return std::unique_ptr<board::Board>(
        new board::Board(boardParams()));
}

std::unique_ptr<rack::Rack>
ClusterTopology::buildRack() const
{
    require(Tier::Rack);
    rack::RackParams p;
    p.nBoards = nBoards_;
    p.board = boardParams();
    return std::unique_ptr<rack::Rack>(new rack::Rack(p));
}

} // namespace dpu::topo
