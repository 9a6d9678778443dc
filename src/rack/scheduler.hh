/**
 * @file
 * Rack-level request scheduling: placement, replica routing with
 * failover, bounded cluster admission, and live rebalancing.
 *
 * The front-end owns four decisions per request, all made at
 * admission time (host phase), which keeps the whole rack
 * bit-deterministic (see rack/rack.hh):
 *
 *  1. Placement — the request's key hashes onto one of
 *     keyPartitions key-range partitions; the partition selects a
 *     board through a mutable board::PartitionMap, which homes it
 *     on board::hashHome() and fails over along its hash group
 *     {g, g+1, ... mod nBoards} until a move or a repair re-homes
 *     it. The replication factor only widens the failover list.
 *
 *  2. Routing with failover — the candidates are tried in order: a
 *     board the failure detector (rack/health.hh) has declared
 *     Down or still holds in Probation is skipped on its verdict
 *     alone, a board whose admission window is full is skipped,
 *     and an attempt that draws no completion ack — the network
 *     dropped it (`rack.netDrop`) or the board was dead at the
 *     delivery tick (`rack.boardDown` / `rack.boardCrash`, checked
 *     inside the health module's board fault model, never here) —
 *     fails over to the next replica after an `ackTimeout`
 *     penalty, paying a fresh network transit. A request that
 *     exhausts its replicas is rejected at the front-end. The
 *     routing decision reads detector state only; the fault plane
 *     is consulted solely at the physical injection points
 *     (RackNet::deliver, HealthMonitor::aliveAt).
 *
 *  3. Bounded admission — per-board sliding-window rate cap
 *     (admitPerWindow requests per admitWindow ticks): a request at
 *     tick T is shed when admitPerWindow admissions already landed
 *     in the half-open window (T - admitWindow, T]. The per-DPU
 *     OffloadScheduler queue bound still applies underneath once
 *     the board simulates.
 *
 *  4. Rebalancing (balance.window > 0) — every arrival first
 *     advances the balancer clock: partition loads roll into EWMAs
 *     at each window boundary, board::planMigrations()
 *     (board/balance.hh, the planner both tiers share) picks moves
 *     off hot boards, and each move ships its partition
 *     state to the new home over the RackNet as Migration traffic.
 *     The transfer's delivery tick opens a *forwarding epoch*: the
 *     partition map is left pointing at the source, arrivals keep
 *     draining there (counted as forwarded, each shipping a small
 *     delta to the destination), and only when an arrival finds the
 *     transfer delivered does the map flip — drain-then-switch, so
 *     no in-flight job is ever lost or duplicated. A transfer the
 *     network drops aborts its migration: the partition simply
 *     stays where it was (fault-safe, retried at a later window).
 *     Because every decision happens at enqueue time in trace
 *     order, rebalancing is bit-identical at any --threads count.
 *
 *  5. Health, repair and brown-out (health.heartbeatPeriod > 0) —
 *     every arrival first advances the HealthMonitor: due
 *     heartbeat rounds ride the RackNet, pending ack/miss
 *     observations resolve, and each board's state machine steps.
 *     When a board is declared Down the repair controller takes
 *     over: in-flight migrations touching the board abort, the
 *     board is evicted from every partition's replica set (the
 *     surviving replica is promoted to primary via an explicit
 *     PartitionMap replica-set override), and the replication
 *     factor is restored by shipping partition state to a fresh
 *     board as a Migration transfer under the same
 *     drain-then-switch rules — the partition is frozen against
 *     balancer moves until the copy commits, and a dropped
 *     transfer is retried at the next arrival. Once every repair
 *     attributed to a crashed board commits, the crash latch
 *     clears and heartbeats walk the board back through
 *     Probation. The brown-out controller sheds requests at the
 *     front-end (AdmitResult::Shed) when a candidate is Suspect or
 *     its admission window is nearly full AND the predicted
 *     delivery delay (ingress backlog + wire + hop, plus the ack
 *     timeout a Suspect board risks) exceeds a fraction of the
 *     request's deadline — degrading gracefully instead of
 *     queueing doomed work.
 *
 * Inside a board the request is routed to a DPU by the board's own
 * BoardScheduler policy (hash), and each chip's OffloadScheduler
 * serves it as it serves any request: deadlines, reaping,
 * quarantine, availability accounting.
 *
 * summary() folds the per-board serving summaries into one rack
 * view (host/summary.hh: submitted-weighted availability, rank
 * percentiles), reads the front-end counts from the "rack" and
 * "health" stat cells, and adds the headline "users served per
 * simulated second".
 */

#ifndef DPU_RACK_SCHEDULER_HH
#define DPU_RACK_SCHEDULER_HH

#include <array>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "board/balance.hh"
#include "host/board_offload.hh"
#include "rack/health.hh"
#include "rack/rack.hh"

namespace dpu::rack {

/** Key-range partitions the rack's key space hashes onto. */
constexpr unsigned keyPartitions = 64;

/** Placement / admission / rebalancing knobs. */
struct PlacementParams
{
    /** Boards per replica group (at most the board count). */
    unsigned replication = 2;
    /** Admission window length; 0 disables the front-end cap. */
    sim::Tick admitWindow = 0;
    /** Requests admitted per board per window (set together with
     *  admitWindow). */
    unsigned admitPerWindow = 0;
    /** Hot-shard balancer; balance.window = 0 keeps it off. A
     *  hand-off ships board::stateBytesPerPartition plus
     *  board::deltaBytesPerRequest per request the partition
     *  absorbed. */
    board::BalancePolicy balance{};
    /** Failure detection / repair / brown-out;
     *  health.heartbeatPeriod = 0 keeps it all off. */
    HealthParams health{};
};

/** "" when @p p places keys on a rack of @p n_boards boards;
 *  otherwise one sentence naming the offending field. Checks the
 *  replica width, the admission pair, the balancer policy
 *  (board::checkBalance) and the detector (checkHealth). */
std::string checkPlacement(const PlacementParams &p,
                           unsigned n_boards);

/** One front-end request: a serving job plus its placement key. */
struct RackRequest
{
    host::JobRequest job;
    /** Placement key (user / row id); drives the replica group. */
    std::uint64_t key = 0;
    /** Request payload carried over the rack network. */
    std::uint64_t bytes = 2048;
};

/** Front-end verdict for one request. */
enum class AdmitResult : std::uint8_t
{
    Admitted,   ///< delivered to a board scheduler
    Rejected,   ///< every replica's admission window was full
    BoardsDown, ///< every replica down (detector or no ack)
    NetLost,    ///< dropped by the network on every replica
    Shed,       ///< brown-out: predicted to miss its deadline
};

/** Rack-wide aggregate (valid after the rack has run). Request,
 *  migration, repair and probe counts are read from the "rack" and
 *  "health" stat cells; byte totals from the RackNet. */
struct RackSummary
{
    host::ServingSummary serving; ///< folded over all boards
    std::uint64_t offered = 0;    ///< enqueueAt calls
    std::uint64_t admitted = 0;
    std::uint64_t rejected = 0;   ///< admission-window rejects
    std::uint64_t boardsDown = 0; ///< lost to board outages
    std::uint64_t netLost = 0;    ///< lost to network drops
    std::uint64_t shed = 0;       ///< brown-out front-end sheds
    /** Non-primary deliveries forced by outage signals (detector
     *  verdicts, missing acks, network drops). */
    std::uint64_t failovers = 0;
    /** Non-primary deliveries where every skipped replica was
     *  merely admission-full or shed — load spreading, not
     *  failure, so `failovers` counts outages only. */
    std::uint64_t admitReroutes = 0;
    // Balancer activity (all zero with balance.window = 0).
    std::uint64_t migStarted = 0;
    std::uint64_t migCommitted = 0;
    std::uint64_t migAborted = 0;  ///< transfer dropped in flight
    std::uint64_t forwarded = 0;   ///< drained at src mid-migration
    std::uint64_t migrationBytes = 0; ///< carried hand-off payload
    std::uint64_t netDroppedBytes = 0;
    // Health / repair activity (all zero with heartbeatPeriod = 0).
    std::uint64_t probes = 0;          ///< heartbeats sent
    std::uint64_t repairsStarted = 0;  ///< re-replication attempts
    std::uint64_t repairsCommitted = 0;
    /** The headline: completed requests per simulated second over
     *  the first-enqueue..last-finish window. */
    double usersPerSimSec = 0;
    /** Offered requests actually served (admission + serving). */
    double servedFraction = 0;
    double netPeakUtilization = 0;
};

/** The key-range partition @p key hashes onto (pure function). An
 *  un-rebalanced rack homes it on board::hashHome(). */
unsigned keyPartition(std::uint64_t key, unsigned key_partitions);

/** The rack front-end: placement, failover, admission, balance. */
class RackScheduler
{
  public:
    /**
     * @p per_dpu parameterizes every per-DPU scheduler; its
     * statName is extended to "<statName>.b<board>.dpu<d>".
     * Board-internal routing is the hash policy. Fatal unless
     * checkPlacement(@p place, r.nBoards()) passes.
     */
    RackScheduler(Rack &r, host::OffloadParams per_dpu,
                  PlacementParams place = {});

    unsigned nBoards() const { return rack.nBoards(); }
    host::BoardScheduler &boardScheduler(unsigned b)
    {
        return *boardScheds[b];
    }
    const PlacementParams &placement() const { return place; }

    /** The failure detector (inert when heartbeatPeriod = 0). */
    HealthMonitor &health() { return *mon; }
    const HealthMonitor &health() const { return *mon; }

    /** The key-range partition @p key hashes onto. */
    unsigned partitionOf(std::uint64_t key) const;

    /** Current home board of @p partition (override or hash). */
    unsigned homeOf(unsigned partition) const;

    /** Primary board of @p key's replica group. */
    unsigned primaryOf(std::uint64_t key) const;

    /** @p key's replica group, failover order (primary first). */
    std::vector<unsigned> replicasOf(std::uint64_t key) const;

    /**
     * Open-loop arrival: @p req reaches the front-end at tick
     * @p when. Calls must come in nondecreasing @p when order (a
     * trace). @return the front-end verdict; on Admitted,
     * @p board_out (when non-null) reports the serving board.
     */
    AdmitResult enqueueAt(sim::Tick when, RackRequest req,
                          unsigned *board_out = nullptr);

    /** Start every board's shard schedulers (then run the rack). */
    void start();

    /** Rack-wide aggregate; valid after rack.run(). */
    RackSummary summary() const;

    /** Moves and repairs currently in their forwarding epoch. */
    unsigned migrationsInFlight() const
    {
        return unsigned(inflight.size());
    }
    /** Entries currently held in @p b's admission window (S1
     *  regression probe: must stay bounded, and empty with the
     *  window cap disabled). */
    std::size_t admitWindowDepth(unsigned b) const
    {
        return windows[b].size();
    }

  private:
    /** One migration inside its forwarding epoch. */
    struct InFlight
    {
        board::MigrationStep step;
        sim::Tick readyAt = 0; ///< transfer delivery tick
        /** Repair re-replication (append a replica on commit)
         *  rather than a balancer move (re-home on commit). */
        bool isRepair = false;
        /** The Down board this repair is making whole again. */
        unsigned attributed = 0;
    };

    /** One owed re-replication not yet shipping (no target yet,
     *  or its transfer was dropped / its target died). */
    struct RepairJob
    {
        unsigned partition = 0;
        unsigned attributed = 0;
    };

    /** True when board @p b's admission window is full at @p now
     *  (advances the window). */
    bool admissionFull(unsigned b, sim::Tick now);

    /** Brown-out verdict for one candidate (see file header). */
    bool shouldShed(unsigned b, sim::Tick send_at,
                    const RackRequest &req) const;

    /** Probes, observations, transitions, repair pump. */
    void advanceHealth(sim::Tick when);
    /** React to detector transitions drained since the last call. */
    void processTransitions();
    /** Evict Down board @p b everywhere; promote + queue repairs. */
    void repairBoard(unsigned b);
    /** Try to ship every owed re-replication at @p when. */
    void pumpRepairs(sim::Tick when);
    /** Re-replications still owed for Down board @p b: queued plus
     *  shipping. */
    unsigned repairsOwed(unsigned b) const;
    /** Least-loaded routable board outside @p exclude, or -1. */
    int pickReplacement(const std::vector<unsigned> &exclude) const;

    /** Roll windows, plan and ship moves at each boundary due by
     *  @p when. */
    void advanceBalancer(sim::Tick when);
    /** Flip the map for transfers delivered by @p when. */
    void commitReady(sim::Tick when);
    /** Ship @p m's partition state to m.step.to over the RackNet at
     *  @p when and open its forwarding epoch. @return false when
     *  the transfer dropped (nothing opens). */
    bool ship(InFlight m, sim::Tick when);
    /** The in-flight record for @p partition, or nullptr. */
    InFlight *inflightOf(unsigned partition);

    Rack &rack;
    PlacementParams place;
    /** Partition -> board map with its replica sets: the only
     *  record of where each partition lives. */
    board::PartitionMap partMap;
    std::vector<std::unique_ptr<host::BoardScheduler>> boardScheds;
    /** Failure detector + board fault model (host phase only). */
    std::unique_ptr<HealthMonitor> mon;
    /** Per-board admitted-request times inside the current window. */
    std::vector<std::deque<sim::Tick>> windows;
    sim::Tick lastOffer = 0;

    // Balancer state (host phase only).
    board::LoadTracker tracker;
    /** Moves and repairs in their forwarding epoch, in start order:
     *  the only record of what is moving. */
    std::vector<InFlight> inflight;
    sim::Tick nextRollAt = 0;      ///< next window boundary; 0 = off

    // Repair state (host phase only).
    std::vector<RepairJob> owedRepairs; ///< queued / retrying
    std::size_t seenTransitions = 0; ///< detector log cursor

    /** Requests admitted per board: pickReplacement()'s load
     *  signal. */
    std::vector<std::uint64_t> boardAdmitted;
    /** The front-end's counts (host phase only), incremented where
     *  each event happens. */
    sim::StatGroup stats;
    sim::Counter offered{stats, "offered"};
    sim::Counter admitted{stats, "admitted"};
    sim::Counter rejected{stats, "rejected"};
    sim::Counter boardsDown{stats, "boardsDown"};
    sim::Counter netLost{stats, "netLost"};
    sim::Counter shed{stats, "shed"};
    sim::Counter failovers{stats, "failovers"};
    sim::Counter admitReroutes{stats, "admitReroutes"};
    sim::Counter forwarded{stats, "forwarded"};
    sim::Counter migStarted{stats, "migStarted"};
    sim::Counter migCommitted{stats, "migCommitted"};
    sim::Counter migAborted{stats, "migAborted"};
    sim::Counter repairStarted{stats, "repairStarted"};
    sim::Counter repairCommitted{stats, "repairCommitted"};
    /** Board b's "b<b>" and its "b<b>.admitted" counter, while the
     *  balancer is live (so un-balanced runs keep their key set). */
    std::vector<std::array<char, 12>> shardNames;
    std::deque<sim::Counter> shardAdmitted;
};

} // namespace dpu::rack

#endif // DPU_RACK_SCHEDULER_HH
