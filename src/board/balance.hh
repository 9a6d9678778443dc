/**
 * @file
 * Intra-board live re-sharding: hot-DPU detection, migration
 * planning, and execution of partition hand-offs over the real DMS
 * descriptor + link-fabric path.
 *
 * The rack scheduler balances load between boards; without this
 * module, shards below the board boundary would stay where they were
 * placed at construction. It closes that tier with the same
 * architecture — windowed EWMA load
 * tracking, a deterministic greedy planner, and the drain-then-
 * switch protocol — but where the rack charges a flat state
 * transfer, the board EXECUTES it the way the paper says data should
 * move: the source DPU stages the partition's DDR-resident range
 * into DMEM with a real DdrToDmem descriptor chain (dms::HandoffExec
 * driving dms::planRangeHandoff plans), each staged chunk ships as
 * bulk DMA over the LinkFabric (snapshot-at-issue, bounded
 * retransmit, Migration traffic class so workload accounting stays
 * clean), and the destination lands it through DmemToDdr descriptors
 * (dms::HandoffLander).
 *
 * The split between planning and execution is what keeps parallel
 * runs bit-identical (DESIGN.md §17):
 *
 *  - planning, the routing flip, and migration harvesting happen in
 *    the HOST PHASE, at window boundaries, when every partition
 *    clock is parked on the same tick;
 *  - execution happens IN THE KERNEL: the staging chain runs as DMS
 *    completion events on the source partition, chunk deliveries
 *    ride the epoch runner's outboxes (delivery ticks at least one
 *    hop beyond the issuing epoch), and landing descriptors run on
 *    the destination partition. No cross-partition state is touched
 *    outside those paths.
 *
 * Failure handling mirrors the rack tier: a chunk dropped by
 * link.drop is retransmitted a bounded number of times from the
 * snapshot; an exhausted or error-completed migration aborts cleanly
 * once its engines drain (the partition stays home, the planner may
 * retry next window); a migration that cannot drain — a wedged DMAC
 * never completes its descriptor — times out at a window boundary
 * and permanently poisons the affected engine roles so no later plan
 * touches them. Deltas absorbed during the forwarding epoch ship to
 * the new home as they arrive, exactly as the rack tier ships them.
 */

#ifndef DPU_BOARD_BALANCE_HH
#define DPU_BOARD_BALANCE_HH

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "dms/handoff_exec.hh"
#include "mem/addr.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace dpu::board {

class Board;

/** State a partition hand-off ships: the board moves exactly this
 *  DDR range; the rack's modelled snapshot also grows by
 *  deltaBytesPerRequest per request the partition absorbed. */
constexpr std::uint64_t stateBytesPerPartition = 64 * 1024;
/** Forwarding-epoch delta shipped per request absorbed at the old
 *  home while its partition is in flight. */
constexpr std::uint64_t deltaBytesPerRequest = 256;

/**
 * The balancer policy both tiers share: when to look, what counts as
 * hot and how much may move per window. The rack uses it as is
 * (rack::PlacementParams::balance); the board adds its key-partition
 * count (BalanceParams). Defaults leave balancing OFF (window = 0),
 * so existing topologies and goldens are untouched.
 */
struct BalancePolicy
{
    /** Observation-window length in ticks; 0 disables balancing. */
    sim::Tick window = 0;
    /** EWMA weight of the newest window, in (0, 1]. */
    double ewmaAlpha = 0.4;
    /** A node (DPU or board) is hot above hotFactor x mean node
     *  load (>= 1). */
    double hotFactor = 1.5;
    /** Migration budget per window boundary. */
    unsigned maxMigrationsPerWindow = 1;
    /** Partitions below this EWMA load never migrate (not worth
     *  the state transfer). */
    double minPartitionLoad = 4.0;
};

/** "" when @p p is usable or disabled (window = 0); otherwise one
 *  sentence naming the offending field. */
std::string checkBalance(const BalancePolicy &p);

/** Windowed per-partition load: current-window counts + EWMA. */
class LoadTracker
{
  public:
    explicit LoadTracker(unsigned n_partitions);

    unsigned size() const { return unsigned(counts.size()); }

    /** Count one request aimed at @p partition. */
    void record(unsigned partition);

    /** Close the window: fold counts into the EWMAs and reset.
     *  The first roll primes each EWMA with its raw count. */
    void roll(double alpha);

    /** Smoothed (EWMA) load of @p partition. */
    double load(unsigned partition) const;
    /** Requests seen for @p partition in the open window. */
    std::uint64_t windowLoad(unsigned partition) const;
    /** All smoothed loads, indexed by partition. */
    const std::vector<double> &loads() const { return ewma; }
    /** Lifetime requests recorded against @p partition. */
    std::uint64_t totalLoad(unsigned partition) const;
    unsigned rollsDone() const { return rolls; }

  private:
    std::vector<std::uint64_t> counts; ///< open window
    std::vector<std::uint64_t> totals; ///< lifetime
    std::vector<double> ewma;
    unsigned rolls = 0;
};

/**
 * The one placement mix: FNV over @p app, CRC-folded with the two
 * halves of @p seed. host::Router sends a keyless request to
 * placementHash(app, seed) % n, and hashHome() homes a partition
 * with it; the goldens pin its values.
 */
std::uint32_t placementHash(std::string_view app, std::uint64_t seed);

/**
 * @p partition's hash home on a tier of @p n nodes, where a map with
 * no reassignments places it: placementHash({}, partition) % n. Pure
 * function; lets workload generators find partitions that collide on
 * one node.
 */
unsigned hashHome(unsigned partition, unsigned n);

/**
 * The partition -> node map of one tier (DPUs on a board, boards in
 * a rack), and the only record of where each partition lives: every
 * partition starts at its hashHome(), the balancer re-homes one
 * partition per commit (reassign()), and the rack's repair pins a
 * partition's full failover order (setReplicas()). Updated only in
 * the host phase, in trace order, so every lookup is a pure function
 * of the trace prefix whatever the thread count.
 */
class PartitionMap
{
  public:
    PartitionMap(unsigned n_partitions, unsigned replication);

    unsigned nPartitions() const { return nParts; }
    unsigned replicationWidth() const { return repl; }

    /** @p partition's current home on a tier of @p n nodes. */
    unsigned homeOf(unsigned partition, unsigned n) const;

    /** Every partition's current home, indexed by partition. */
    std::vector<unsigned> homes(unsigned n) const;

    /**
     * @p partition's failover order, home first. A pinned replica
     * set is returned as is; otherwise the home followed by the
     * partition's hash group {g, g+1, ... mod n} minus the home,
     * clamped to the replication width.
     */
    std::vector<unsigned> candidates(unsigned partition,
                                     unsigned n) const;

    /** Re-home @p partition onto @p node. A pinned replica set
     *  gets @p node moved to its front, so routing and failover
     *  order agree. */
    void reassign(unsigned partition, unsigned node);

    /** True when @p partition has been moved off its hash home. */
    bool reassigned(unsigned partition) const;

    /** Partitions currently living away from their hash home. */
    unsigned reassignedCount() const;

    /**
     * Pin @p partition's full failover order to @p nodes (home
     * first; non-empty, no duplicates). Overrides the hash group
     * from then on; homeOf() reports nodes[0]. The rack's repair
     * uses this to evict a dead board from a partition's replica
     * set and to record a re-replicated copy's new location.
     */
    void setReplicas(unsigned partition, std::vector<unsigned> nodes);

  private:
    unsigned nParts;
    unsigned repl;
    /** Per-partition home override; -1 = the hash home. */
    std::vector<std::int32_t> overrides;
    /** Per-partition pinned failover order; empty = hash group. */
    std::vector<std::vector<unsigned>> replicaSets;
};

/** One planned partition move. */
struct MigrationStep
{
    unsigned partition = 0;
    unsigned from = 0;
    unsigned to = 0;
    /** The partition's smoothed load at planning time. */
    double load = 0;
};

/**
 * Plan up to maxMigrationsPerWindow moves off hot nodes.
 *
 * @p loads   per-partition EWMA loads (LoadTracker::loads()).
 * @p home    partition -> owning node (PartitionMap::homes()),
 *            updated in place as steps are planned (so one call
 *            never plans two moves of the same partition).
 * @p n_nodes node (DPU or board) count.
 * @p frozen  partitions that may not move (in-flight migrations);
 *            indexed by partition, may be empty.
 *
 * Deterministic: identical inputs give identical plans. Every
 * choice breaks ties by lowest index, and a move requires strict
 * improvement (the destination, with the partition added, must stay
 * below the source's current load) so planning cannot oscillate.
 */
std::vector<MigrationStep>
planMigrations(const std::vector<double> &loads,
               std::vector<unsigned> &home, unsigned n_nodes,
               const BalancePolicy &p,
               const std::vector<bool> &frozen = {});

/** DDR base of the board's per-partition state ranges (identical
 *  on every DPU; clear of the offload arenas). */
constexpr mem::Addr stateBase = mem::Addr(192) << 20;
/** A migration not fully landed this long after launch is aborted
 *  at the next window boundary; its engine roles are poisoned (a
 *  wedged DMAC never completes). */
constexpr sim::Tick migrationTimeout = sim::Tick(2'000'000'000); // 2 ms

/** The core driving the hand-off descriptor chains on a chip of
 *  @p n_cores cores: the last one. The offload scheduler must not
 *  manage it. */
constexpr unsigned
engineCoreOn(unsigned n_cores)
{
    return n_cores - 1;
}

/** Board-balancer knobs: the shared policy plus the key-partition
 *  count. */
struct BalanceParams : BalancePolicy
{
    /** Key partitions the board's requests hash into. */
    unsigned keyPartitions = 16;
};

/** keyPartitions (checked with the balancer off too), then
 *  checkBalance() of the policy. */
std::string checkBalance(const BalanceParams &p);

/**
 * The board-tier balancer: owns the tracker, the per-DPU hand-off
 * engines, and every migration; re-homes partitions in the board's
 * PartitionMap (owned by host::BoardScheduler) as they commit.
 * Driven by the BoardScheduler, which calls record() per routed
 * request and onWindowBoundary() between runFor() segments.
 */
class BoardBalancer
{
  public:
    /** Migration accounting: a fold of the "board.balance"
     *  cells. */
    struct Report
    {
        std::uint64_t planned = 0;   ///< migrations launched
        std::uint64_t committed = 0;
        std::uint64_t aborted = 0;   ///< failed + timed out
        std::uint64_t timeoutAborts = 0;
        std::uint64_t chunkRetries = 0; ///< link-drop retransmits
        std::uint64_t forwarded = 0; ///< forwarding-epoch requests
        std::uint64_t deltaBytes = 0;
        std::uint64_t deltaDropped = 0; ///< delta msgs lost on wire
        std::uint64_t stateBytes = 0;   ///< committed state moved
    };

    /** Seeds each partition's state pattern into the DDR of its
     *  home in @p map and builds the per-DPU engine roles (host
     *  phase, before the board runs). @p map outlives the
     *  balancer. */
    BoardBalancer(Board &brd, PartitionMap &map,
                  const BalanceParams &params);
    ~BoardBalancer();

    // ------------------------------------------------------------
    // Host-phase driving API
    // ------------------------------------------------------------

    /** Count one request routed to @p part; if the partition is in
     *  flight, ship its forwarding-epoch delta to the new home. */
    void record(unsigned part);

    /** Window boundary @p boundary (== the board clock): harvest
     *  finished migrations, roll the tracker, plan and launch new
     *  ones (unless draining). */
    void onWindowBoundary(sim::Tick boundary);

    /** Stop planning new migrations (the driver is draining). */
    void setDraining(bool d) { draining = d; }

    /** True while any migration is staging/shipping/landing. */
    bool migrationsActive() const;

    // ------------------------------------------------------------
    // Introspection
    // ------------------------------------------------------------

    unsigned homeOf(unsigned part) const;
    mem::Addr stateAddr(unsigned part) const;
    /** The partition's state range, read from its CURRENT home. */
    std::vector<std::uint8_t> stateImage(unsigned part) const;
    /** Expected byte @p i of partition @p part's state pattern. */
    static std::uint8_t statePattern(unsigned part, std::uint64_t i);

    /** The accounting so far, read from the stat cells. */
    Report report() const;
    /** DPU @p dpu's destination role (diagnostics). */
    const dms::HandoffLander &
    lander(unsigned dpu) const
    {
        return *engines[dpu].lander;
    }
    /** Source roles poisoned by timed-out migrations
     *  (diagnostics). */
    bool srcPoisoned(unsigned dpu) const;

  private:
    /** One migration. Host-phase fields are only touched at window
     *  boundaries; srcFailed / srcRetries are written by the source
     *  partition's thread and read host-phase (the boundary's
     *  barrier orders the two). */
    struct Migration
    {
        unsigned part = 0;
        unsigned from = 0;
        unsigned to = 0;
        sim::Tick launchedAt = 0;
        unsigned gen = 0; ///< lander generation token
        dms::HandoffPlan plan;
        unsigned chunks = 0;
        // --- source-thread written ---
        bool srcFailed = false;
        unsigned srcRetries = 0;
    };

    /** Per-DPU hand-off engine roles on the engine core. A role is
     *  busy while an in-flight migration holds it. */
    struct Engines
    {
        std::unique_ptr<dms::HandoffExec> exec;     ///< source role
        std::unique_ptr<dms::HandoffLander> lander; ///< dest role
        bool srcPoisoned = false;
        bool dstPoisoned = false;
    };

    void seedState(unsigned part, unsigned dpu);
    /** True when an in-flight migration holds @p from's source role
     *  or @p to's destination role. */
    bool rolesBusy(unsigned from, unsigned to) const;
    void launch(const MigrationStep &step, sim::Tick boundary);
    void srcStart(Migration &m);
    void onChunkStaged(Migration &m, unsigned chunk, bool error);
    void ship(Migration &m, unsigned chunk,
              std::shared_ptr<std::vector<std::uint8_t>> payload,
              unsigned attempts);
    void harvest(sim::Tick boundary);

    Board &brd;
    PartitionMap &map;
    BalanceParams p;
    /** engineCoreOn() of this board's chips. */
    unsigned handoffCore;
    LoadTracker track;
    std::vector<Engines> engines;
    /** Owning store; stable addresses (events capture Migration&). */
    std::vector<std::unique_ptr<Migration>> migrations;
    /** Active migration per partition, else nullptr: the only
     *  record of what is moving. */
    std::vector<Migration *> inflight;
    bool draining = false;
    /** Host-phase counts, incremented where each event happens. The
     *  landers count their stale deliveries here too, each on its
     *  own partition's thread. */
    sim::StatGroup stats;
    sim::Counter planned{stats, "planned"};
    sim::Counter committed{stats, "committed"};
    sim::Counter aborted{stats, "aborted"};
    sim::Counter timeoutAborts{stats, "timeoutAborts"};
    sim::Counter chunkRetries{stats, "chunkRetries"};
    sim::Counter forwarded{stats, "forwarded"};
    sim::Counter deltaBytes{stats, "deltaBytes"};
    sim::Counter deltaDropped{stats, "deltaDropped"};
    sim::Counter stateBytes{stats, "stateBytes"};
};

} // namespace dpu::board

#endif // DPU_BOARD_BALANCE_HH
