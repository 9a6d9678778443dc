/**
 * @file
 * Observed-signal board failure detection for the rack tier.
 *
 * The paper's 500+ DPU deployment (Section 6) loses boards as a
 * matter of routine, and no production front-end gets to peek at a
 * fault injector to learn about it. This module replaces the
 * oracle read RackScheduler::boardDown used to do on the routing
 * path with a detector driven purely by signals the front-end can
 * actually see:
 *
 *  - completion acks: every admitted request's delivery either
 *    comes back acknowledged (board alive at the delivery tick) or
 *    times out (board dead, or the rack.netDrop fabric ate it —
 *    the front-end cannot tell the difference, which is exactly
 *    why drops alone must not flip a board to Down);
 *
 *  - heartbeat probes: every `heartbeatPeriod` ticks the monitor
 *    sends one small probe per board over the RackNet. Probes are
 *    real traffic (sim::Traffic::Probe): they burn wire time on the
 *    board's ingress pipe and are subject to rack.netDrop /
 *    rack.netDelay like any other message. A probe that reaches a
 *    live board acks one hop later; a probe that is dropped or
 *    lands on a dead board times out after `ackTimeout`.
 *
 * Signals feed a per-board hysteresis state machine:
 *
 *     Healthy --(suspectAfter consecutive misses)--> Suspect
 *     Suspect --(downAfter consecutive misses)-----> Down
 *     Suspect --(one ack)--------------------------> Healthy
 *     Down    --(one ack)--------------------------> Probation
 *     Probation --(rejoinAfter consecutive acks)---> Healthy
 *     Probation --(one miss)-----------------------> Down
 *
 * Down and Probation boards are not routable; Suspect boards still
 * serve (the brown-out controller may shed deadline-risky requests
 * aimed at them). Observations are resolved in (tick, sequence)
 * order from a pending queue, and probes are emitted on a fixed
 * host-phase schedule, so the detector — like everything else at
 * admission time — is a pure function of the trace and stays
 * bit-identical at every --threads count.
 *
 * The monitor also owns the *board fault model*: aliveAt() is the
 * injection point where `rack.boardDown` (transient window) and
 * `rack.boardCrash` (state lost; the board stays dead past its
 * window until markRepaired()) consult the fault plane. These are
 * the only fault-plane reads left on the rack side of a request —
 * they model the physical outcome of a send at the board, exactly
 * like RackNet::deliver models a drop in the switch — and the
 * routing decision itself sees nothing but detector verdicts. The
 * oracle survives only as a test probe (tests compare transition
 * ticks against injected fault windows to measure detection
 * latency and false positives).
 *
 * Monitoring is opt-in: with heartbeatPeriod = 0 the monitor sends
 * no probes, records no observations and keeps every board
 * Healthy, so un-monitored racks run the exact pre-detector
 * admission schedule and their goldens stay byte-identical.
 */

#ifndef DPU_RACK_HEALTH_HH
#define DPU_RACK_HEALTH_HH

#include <cstdint>
#include <memory>
#include <queue>
#include <string>
#include <vector>

#include "rack/net.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace dpu::rack {

/** Detector verdict for one board. */
enum class BoardHealth : std::uint8_t
{
    Healthy,   ///< serving normally
    Suspect,   ///< missed heartbeats; still routable, shed-eligible
    Down,      ///< declared failed; unroutable, repair triggered
    Probation, ///< acking again; unroutable until rejoin hysteresis
};

/** Probe payload carried per board per heartbeat round. */
constexpr std::uint64_t probeBytes = 128;
/** Brown-out: admission-window occupancy fraction above which a
 *  board counts as pressured even while Healthy. */
constexpr double shedPressure = 0.9;
/** Brown-out: shed when the predicted front-end delay exceeds this
 *  fraction of the request's deadline. */
constexpr double shedDeadlineFrac = 0.25;

/** Failure-detection knobs. Defaults leave monitoring OFF
 *  (heartbeatPeriod = 0) so existing racks and goldens are
 *  untouched; dead-board failover still works per-request via ack
 *  timeouts even when monitoring is off. A Down verdict always
 *  starts repair. */
struct HealthParams
{
    /** Probe cadence in ticks; 0 disables detection entirely. */
    sim::Tick heartbeatPeriod = 0;
    /** No ack within this many ticks of a send = one miss. Also
     *  the failover penalty a dead/dropped attempt costs. */
    sim::Tick ackTimeout = sim::Tick(50'000'000); // 50 us
    /** Consecutive misses before Healthy -> Suspect. */
    unsigned suspectAfter = 2;
    /** Consecutive misses before Suspect -> Down (>= suspectAfter). */
    unsigned downAfter = 4;
    /** Consecutive Probation acks before rejoining Healthy. */
    unsigned rejoinAfter = 3;
};

/** "" when @p p is usable or disabled (heartbeatPeriod = 0);
 *  otherwise one sentence naming the offending field. */
std::string checkHealth(const HealthParams &p);

/** One detector state change (tests measure detection latency and
 *  false positives against these). */
struct HealthTransition
{
    sim::Tick at = 0; ///< tick the deciding observation carried
    unsigned board = 0;
    BoardHealth from = BoardHealth::Healthy;
    BoardHealth to = BoardHealth::Healthy;
};

/** Per-board failure detector + board fault model. */
class HealthMonitor
{
  public:
    HealthMonitor(RackNet &net, unsigned n_boards, HealthParams p);

    const HealthParams &params() const { return prm; }
    unsigned size() const { return n; }

    /** True when detection is armed (heartbeatPeriod > 0). */
    bool monitoring() const { return prm.heartbeatPeriod > 0; }

    // --- board fault model (the injection point) ----------------

    /**
     * Is board @p b physically able to ack a message at @p t?
     * Consults rack.boardDown (transient) and rack.boardCrash
     * (latched until markRepaired) fault rules — the only
     * fault-plane reads on the rack request path. Host phase only;
     * consumes injection opportunities.
     */
    bool aliveAt(unsigned b, sim::Tick t);

    /** Repair finished re-provisioning @p b: clear the crash
     *  latch so probes can bring it back through Probation. */
    void markRepaired(unsigned b);

    // --- observable signals -------------------------------------

    /** A send to @p b was acknowledged; the ack arrived at @p at. */
    void observeAck(unsigned b, sim::Tick at);

    /** A send to @p b timed out; the miss is known at @p at. */
    void observeMiss(unsigned b, sim::Tick at);

    /**
     * Advance the monitor's clock to @p now: emit every heartbeat
     * round due by @p now (probes ride the RackNet and generate
     * ack/miss observations of their own), then resolve every
     * pending observation whose tick has passed, in (tick, seq)
     * order. Call from the admission path before routing, in trace
     * order. No-op while monitoring is off.
     */
    void advanceTo(sim::Tick now);

    // --- verdicts -----------------------------------------------

    BoardHealth state(unsigned b) const { return boards[b].st; }

    /** Routing verdict: Healthy and Suspect boards serve. */
    bool
    routable(unsigned b) const
    {
        return boards[b].st == BoardHealth::Healthy ||
               boards[b].st == BoardHealth::Suspect;
    }

    bool
    suspectVerdict(unsigned b) const
    {
        return boards[b].st == BoardHealth::Suspect;
    }

    /** Every state change so far, in decision order. */
    const std::vector<HealthTransition> &
    transitions() const
    {
        return log;
    }

    /** Heartbeats sent (0 with monitoring off). */
    std::uint64_t probesSent() const
    {
        return stats ? stats->probes.value() : 0;
    }

  private:
    /** One pending ack/miss, resolved at its observation tick. */
    struct Obs
    {
        sim::Tick at = 0;
        std::uint64_t seq = 0; ///< push order; total-order tiebreak
        unsigned board = 0;
        bool ack = false;
    };

    struct ObsLater
    {
        bool
        operator()(const Obs &a, const Obs &b) const
        {
            return a.at != b.at ? a.at > b.at : a.seq > b.seq;
        }
    };

    struct BoardState
    {
        BoardHealth st = BoardHealth::Healthy;
        unsigned consecMiss = 0;
        unsigned consecAck = 0;
        bool crashedLatch = false;
    };

    /** Queue an observation for deterministic resolution. */
    void push(unsigned b, sim::Tick at, bool ack);

    /** Apply one resolved observation to its board's machine. */
    void resolve(const Obs &o);

    /** Record a state change (log + cells). */
    void transition(unsigned b, BoardHealth to, sim::Tick at);

    /** One probe round: ping every board at @p at. */
    void sendProbes(sim::Tick at);

    RackNet &net;
    HealthParams prm;
    unsigned n;
    std::vector<BoardState> boards;
    std::priority_queue<Obs, std::vector<Obs>, ObsLater> pending;
    std::uint64_t seqGen = 0;
    sim::Tick nextProbeAt = 0; ///< 0 = monitoring off
    std::vector<HealthTransition> log;

    /** The "health" group and its counters. */
    struct Stats
    {
        sim::StatGroup group{"health"};
        sim::Counter probes{group, "probes"};
        sim::Counter acks{group, "acks"};
        sim::Counter misses{group, "misses"};
        sim::Counter suspects{group, "suspects"};
        sim::Counter downs{group, "downs"};
        sim::Counter rejoins{group, "rejoins"};
    };
    /** Probe, ack, miss and transition counts, incremented where
     *  each happens. Created only when monitoring is on, so
     *  un-monitored runs keep their stat snapshots byte-identical. */
    std::unique_ptr<Stats> stats;
};

} // namespace dpu::rack

#endif // DPU_RACK_HEALTH_HH
