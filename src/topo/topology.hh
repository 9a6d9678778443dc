/**
 * @file
 * The unified topology builder: one validated spec for every tier.
 *
 * Before this, each tier grew its own parameter struct and
 * constructor sprawl — SocParams for a chip, BoardParams (SocParams
 * + LinkParams + runner knobs) for a board, RackParams (BoardParams
 * + NetParams) for a rack — and a caller gluing tiers together had
 * to thread the right sub-struct into the right constructor with no
 * cross-field validation. topo::ClusterTopology collapses that into
 * one fluent builder:
 *
 *   auto soc  = topo::ClusterTopology::soc().chip(soc::dpu16nm());
 *   auto brd  = topo::ClusterTopology::board(4).threads(4);
 *   auto rack = topo::ClusterTopology::rack(8, 2)
 *                   .replication(2)
 *                   .network(myNet);
 *
 *   std::string err = rack.validate();   // "" when buildable
 *   auto r = rack.buildRack();           // fatal with err otherwise
 *
 * Every shape error is reported as a sentence naming the offending
 * field and tier, not an assert in some constructor three layers
 * down. The per-tier parameter structs survive as thin shims —
 * boardParams()/rackParams() project the spec onto them, and the
 * legacy construction paths (board::Board(BoardParams) etc.) keep
 * compiling for existing tests and benches.
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

    /** Intra-board link fabric timing. */
    ClusterTopology &link(const board::LinkParams &p);

    /** Inter-board rack network timing. */
    ClusterTopology &network(const rack::NetParams &p);

    /** Rack placement / admission knobs. */
    ClusterTopology &placement(const rack::PlacementParams &p);

    /** Boards per replica group (shorthand into placement). */
    ClusterTopology &replication(unsigned r);

    /** Rack hot-shard balancer policy (shorthand into placement). */
    ClusterTopology &balance(const board::BalancePolicy &p);

    /** Intra-board live re-sharding knobs (board/balance.hh); the
     *  default window = 0 keeps it off. Board and Rack tiers. */
    ClusterTopology &boardBalance(const board::BalanceParams &p);

    /** Failure-detection / repair / brown-out knobs (shorthand
     *  into placement; heartbeatPeriod = 0 keeps it off). */
    ClusterTopology &health(const rack::HealthParams &p);

    /** Epoch-runner worker threads per board. */
    ClusterTopology &threads(unsigned n);

    /** Pin runner workers to cores (best effort). */
    ClusterTopology &pinCores(bool pin);

    /** Epoch lookahead override (0 = the link hop latency). */
    ClusterTopology &lookahead(sim::Tick ticks);

    /** Bulk-DMA retransmit budget on the board links. */
    ClusterTopology &dmaRetries(unsigned n);

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
    // Legacy parameter-struct projections (the shim layer)
    // ------------------------------------------------------------

    const soc::SocParams &socParams() const { return soc_; }

    /** Board-tier projection; valid for Board and Rack tiers. */
    board::BoardParams boardParams() const;

    /** Rack-tier projection; valid for the Rack tier. */
    rack::RackParams rackParams() const;

    rack::PlacementParams placementParams() const { return place_; }

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

    Tier tier_;
    unsigned nBoards_ = 1;
    unsigned nDpus_ = 1;
    soc::SocParams soc_ = soc::dpu40nm();
    board::LinkParams link_{};
    rack::NetParams net_{};
    rack::PlacementParams place_{};
    board::BalanceParams boardBal_{};
    unsigned threads_ = 1;
    bool pinCores_ = false;
    sim::Tick lookahead_ = 0;
    unsigned dmaRetries_ = 4;
};

} // namespace dpu::topo

#endif // DPU_TOPO_TOPOLOGY_HH
