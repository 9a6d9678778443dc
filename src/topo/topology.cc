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
ClusterTopology::link(const board::LinkParams &p)
{
    link_ = p;
    return *this;
}

ClusterTopology &
ClusterTopology::network(const rack::NetParams &p)
{
    net_ = p;
    return *this;
}

ClusterTopology &
ClusterTopology::placement(const rack::PlacementParams &p)
{
    place_ = p;
    return *this;
}

ClusterTopology &
ClusterTopology::replication(unsigned r)
{
    place_.replication = r;
    return *this;
}

ClusterTopology &
ClusterTopology::balance(const board::BalancePolicy &p)
{
    place_.balance = p;
    return *this;
}

ClusterTopology &
ClusterTopology::boardBalance(const board::BalanceParams &p)
{
    boardBal_ = p;
    return *this;
}

ClusterTopology &
ClusterTopology::health(const rack::HealthParams &p)
{
    place_.health = p;
    return *this;
}

ClusterTopology &
ClusterTopology::threads(unsigned n)
{
    threads_ = n;
    return *this;
}

ClusterTopology &
ClusterTopology::pinCores(bool pin)
{
    pinCores_ = pin;
    return *this;
}

ClusterTopology &
ClusterTopology::lookahead(sim::Tick ticks)
{
    lookahead_ = ticks;
    return *this;
}

ClusterTopology &
ClusterTopology::dmaRetries(unsigned n)
{
    dmaRetries_ = n;
    return *this;
}

std::string
ClusterTopology::validate() const
{
    auto msg = [](const std::string &s) { return s; };

    if (nDpus_ == 0)
        return msg("a " + std::string(tierName(tier_)) +
                   " needs at least one DPU per board "
                   "(dpusPerBoard = 0)");
    if (tier_ == Tier::Soc && nDpus_ != 1)
        return msg("a soc is exactly one DPU; use "
                   "ClusterTopology::board() for " +
                   std::to_string(nDpus_) + " chips");
    if (tier_ == Tier::Rack && nBoards_ == 0)
        return msg("a rack needs at least one board (nBoards = 0)");

    if (soc_.nCores() == 0)
        return msg("the chip needs at least one core "
                   "(nComplexes x coresPerComplex = 0)");

    if (threads_ == 0)
        return msg("the epoch runner needs at least one worker "
                   "thread (threads = 0)");

    if (tier_ != Tier::Soc) {
        if (link_.gbPerSec <= 0)
            return msg("the board link bandwidth must be positive "
                       "(LinkParams.gbPerSec = " +
                       std::to_string(link_.gbPerSec) + ")");
        if (link_.hopLatency == 0)
            return msg("the board link hop latency must be "
                       "positive: a zero-latency link collapses "
                       "the epoch runner's lookahead window");
        if (link_.flitBytes == 0)
            return msg("the board link flit size must be positive "
                       "(LinkParams.flitBytes = 0)");
        if (std::string err = board::checkBalance(boardBal_);
            !err.empty())
            return msg(err);
    }

    if (tier_ == Tier::Rack) {
        if (net_.gbPerSec <= 0)
            return msg("the rack network bandwidth must be "
                       "positive (NetParams.gbPerSec = " +
                       std::to_string(net_.gbPerSec) + ")");
        if (net_.hopLatency == 0)
            return msg("the rack network hop latency must be "
                       "positive (NetParams.hopLatency = 0)");
        if (net_.flitBytes == 0)
            return msg("the rack network flit size must be "
                       "positive (NetParams.flitBytes = 0)");
        if (place_.keyPartitions == 0)
            return msg("placement needs at least one key partition "
                       "(PlacementParams.keyPartitions = 0)");
        if (place_.replication == 0)
            return msg("placement needs at least one replica "
                       "(PlacementParams.replication = 0)");
        if (place_.replication > nBoards_)
            return msg("replication " +
                       std::to_string(place_.replication) +
                       " exceeds the rack's " +
                       std::to_string(nBoards_) + " board" +
                       (nBoards_ == 1 ? "" : "s"));
        if ((place_.admitWindow == 0) !=
            (place_.admitPerWindow == 0))
            return msg("admission control needs both admitWindow "
                       "and admitPerWindow set (or neither)");
        if (std::string err = board::checkBalance(place_.balance);
            !err.empty())
            return msg(err);
        if (place_.health.heartbeatPeriod) {
            const rack::HealthParams &h = place_.health;
            if (h.ackTimeout == 0)
                return msg("an enabled health monitor needs a "
                           "positive ack timeout "
                           "(HealthParams.ackTimeout = 0)");
            if (h.suspectAfter == 0)
                return msg("the detector needs at least one miss "
                           "to suspect a board "
                           "(HealthParams.suspectAfter = 0)");
            if (h.downAfter < h.suspectAfter)
                return msg("downAfter " +
                           std::to_string(h.downAfter) +
                           " below suspectAfter " +
                           std::to_string(h.suspectAfter) +
                           " would skip the Suspect state");
            if (h.rejoinAfter == 0)
                return msg("the detector needs at least one clean "
                           "probe to rejoin "
                           "(HealthParams.rejoinAfter = 0)");
            if (h.shedPressure <= 0 || h.shedPressure > 1)
                return msg("shedPressure must sit in (0, 1] "
                           "(HealthParams.shedPressure = " +
                           std::to_string(h.shedPressure) + ")");
            if (h.shedDeadlineFrac <= 0)
                return msg("shedDeadlineFrac must be positive "
                           "(HealthParams.shedDeadlineFrac = " +
                           std::to_string(h.shedDeadlineFrac) +
                           ")");
        }
    }

    return "";
}

board::BoardParams
ClusterTopology::boardParams() const
{
    sim_assert(tier_ != Tier::Soc,
               "boardParams() on a soc topology; use socParams()");
    board::BoardParams p;
    p.nDpus = nDpus_;
    p.soc = soc_;
    p.link = link_;
    p.dmaRetries = dmaRetries_;
    p.threads = threads_;
    p.pinCores = pinCores_;
    p.lookahead = lookahead_;
    p.balance = boardBal_;
    return p;
}

rack::RackParams
ClusterTopology::rackParams() const
{
    sim_assert(tier_ == Tier::Rack,
               "rackParams() on a %s topology", tierName(tier_));
    rack::RackParams p;
    p.nBoards = nBoards_;
    p.board = boardParams();
    p.net = net_;
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
    return std::make_unique<board::Board>(boardParams());
}

std::unique_ptr<rack::Rack>
ClusterTopology::buildRack() const
{
    require(Tier::Rack);
    return std::make_unique<rack::Rack>(rackParams());
}

} // namespace dpu::topo
