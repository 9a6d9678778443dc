/**
 * @file
 * The unified topology builder: one validated spec for every tier.
 *
 * One fluent builder validates the shape of every tier and is the
 * only way to construct a board::Board or a rack::Rack (their
 * constructors are private to it):
 *
 *   auto soc  = topo::ClusterTopology::soc().chip(soc::dpu16nm());
 *   auto brd  = topo::ClusterTopology::board(4).threads(4);
 *   rack::PlacementParams pl;
 *   pl.replication = 2;
 *   auto rack = topo::ClusterTopology::rack(8, 2).placement(pl);
 *
 *   std::string err = rack.validate();   // "" when buildable
 *   auto r = rack.buildRack();           // fatal with err otherwise
 *
 * Every shape error is reported as a sentence naming the offending
 * field and tier, not an assert in some constructor three layers
 * down. The settable dimensions are the ones workloads sweep: the
 * chip, the board and rack sizes, epoch-runner threads, placement
 * (replication, admission, the rack balancer policy, failure
 * detection) and the board balancer policy. Link and network
 * timing, DMA retries and the balancers' hand-off layout are
 * constants next to the code that uses them.
 */

#ifndef DPU_TOPO_TOPOLOGY_HH
#define DPU_TOPO_TOPOLOGY_HH

#include <memory>
#include <string>

#include "board/board.hh"
#include "rack/rack.hh"
#include "rack/scheduler.hh"
#include "soc/soc.hh"

namespace dpu::topo {

/** Which tier a topology describes. */
enum class Tier : std::uint8_t
{
    Soc,
    Board,
    Rack,
};

/** Tier name for error messages ("soc", "board", "rack"). */
const char *tierName(Tier t);

/** One validated cluster shape, buildable at any tier. */
class ClusterTopology
{
  public:
    // ------------------------------------------------------------
    // Tier anchors
    // ------------------------------------------------------------

    /** A single chip. */
    static ClusterTopology soc();

    /** One board of @p n_dpus chips. */
    static ClusterTopology board(unsigned n_dpus);

    /** @p n_boards boards of @p dpus_per_board chips each. */
    static ClusterTopology rack(unsigned n_boards,
                                unsigned dpus_per_board);

    // ------------------------------------------------------------
    // Fluent spec
    // ------------------------------------------------------------

    /** Chip configuration (default soc::dpu40nm()). */
    ClusterTopology &chip(const soc::SocParams &p);

    /** Rack placement, admission, balancer policy and failure
     *  detection (rack/scheduler.hh). Rack tier; pass the same
     *  struct to the rack::RackScheduler. */
    ClusterTopology &placement(const rack::PlacementParams &p);

    /** Intra-board live re-sharding knobs (board/balance.hh); the
     *  default window = 0 keeps it off. Board tier only: a rack
     *  balances through placement().balance. */
    ClusterTopology &boardBalance(const board::BalanceParams &p);

    /** Epoch-runner worker threads per board. */
    ClusterTopology &threads(unsigned n);

    // ------------------------------------------------------------
    // Inspection
    // ------------------------------------------------------------

    Tier tier() const { return tier_; }
    unsigned nBoards() const { return nBoards_; }
    unsigned dpusPerBoard() const { return nDpus_; }

    /** Total chips across the topology. */
    unsigned totalDpus() const { return nBoards_ * nDpus_; }

    /**
     * Validate the shape. @return "" when buildable, otherwise one
     * sentence naming the offending field ("a board needs at least
     * one DPU (nDpus = 0)", "replication 4 exceeds the rack's 2
     * boards", ...). build*() is fatal on a non-empty result.
     */
    std::string validate() const;

    // ------------------------------------------------------------
    // Builders (fatal when validate() or the tier disagrees)
    // ------------------------------------------------------------

    /** Build the chip onto @p q (Soc tier only). */
    std::unique_ptr<soc::Soc> buildSoc(sim::EventQueue &q) const;

    /** Build the board (Board tier only). */
    std::unique_ptr<board::Board> buildBoard() const;

    /** Build the rack (Rack tier only). */
    std::unique_ptr<rack::Rack> buildRack() const;

  private:
    explicit ClusterTopology(Tier t) : tier_(t) {}

    /** Fatal unless validate() passes and the tier is @p want. */
    void require(Tier want) const;

    /** The shape of one board (Board and Rack tiers). */
    board::BoardParams boardParams() const;

    Tier tier_;
    unsigned nBoards_ = 1;
    unsigned nDpus_ = 1;
    soc::SocParams soc_ = soc::dpu40nm();
    rack::PlacementParams place_{};
    board::BalanceParams boardBal_{};
    unsigned threads_ = 1;
};

} // namespace dpu::topo

#endif // DPU_TOPO_TOPOLOGY_HH
