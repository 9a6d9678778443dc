/**
 * @file
 * The fault-injection plane.
 *
 * One process-wide, deterministic, seeded fault scheduler shared by
 * every subsystem hook point (DMS, ATE, MBC, core worker loops, the
 * DDR channel). Benches and tests configure it from a small spec
 * string, so a chaos run, a CI smoke job and an interactive repro
 * all describe faults the same way:
 *
 *   site[@key=value[,key=value...]][;site...]
 *
 * Sites:
 *   dms.wedge      DMAC wedges; the descriptor never completes
 *   dms.descError  descriptor completes with error status, no data
 *   ate.drop       RPC request lost in the fabric (no response)
 *   ate.delay      RPC delivery delayed by `mag` ticks
 *   mbc.drop       mailbox message lost
 *   core.stall     worker-lane stall of `mag` cycles (0 = forever)
 *   mem.degrade    DDR burst time multiplied by `mag` in [from,to)
 *   link.drop      inter-DPU link message lost in the board fabric
 *   link.delay     inter-DPU link delivery delayed by `mag` ticks
 *   rack.netDrop   inter-board network message lost (rack fabric)
 *   rack.netDelay  inter-board delivery delayed by `mag` ticks
 *   rack.boardDown board unavailable inside [from,to) (unit = board)
 *   rack.boardCrash board dies losing its partition state; unlike
 *                  boardDown the board stays dead past the window
 *                  until the rack's repair protocol re-provisions
 *                  it (unit = board)
 *
 * Keys (all optional):
 *   p=0.05      per-opportunity firing probability
 *   nth=K       fire on every Kth opportunity instead (overrides p)
 *   from=, to=  active tick window (accepts 2e9 style; default all)
 *   max=N       at most N firings (default unlimited)
 *   mag=M       site-specific magnitude (ticks / cycles / divisor)
 *   unit=U      only opportunities of unit U (core id; default any)
 *
 * Determinism: every rule owns one Rng PER EXECUTION DOMAIN (see
 * sim/domain.hh), seeded from (configure seed, rule index, domain) —
 * never from wall clock — and a decision consumes randomness only
 * for p-rules with p < 1. A multi-DPU board runs each DPU in its own
 * domain, so every chip's opportunity stream draws from its own rule
 * state whatever thread executes it and however partitions
 * interleave: same spec + seed => same faults => same stats, at any
 * --threads. Domain 0 is seeded exactly as the pre-domain single
 * stream, keeping single-chip runs byte-identical. Note the `max`
 * firing budget and `nth` counters are likewise per (rule, domain).
 *
 * Thread-safety: fires() only mutates current-domain state. Each
 * domain counts its injections in its own sim::Counter per site,
 * and the "fault" group reads a site's counters as one cell, so
 * concurrent partitions never share a count. All configuration
 * (configure / reset / ensureDomains) is host-phase only — never
 * call it while a parallel run is in flight.
 *
 * The plane is inert until configured: every hook point first tests
 * active(), so un-faulted runs execute the exact pre-fault paths and
 * keep their golden stats byte-identical.
 */

#ifndef DPU_SIM_FAULT_HH
#define DPU_SIM_FAULT_HH

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "sim/rng.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace dpu::sim {

/** Injection sites, one per subsystem hook point. */
enum class FaultSite : std::uint8_t
{
    DmsWedge,
    DmsDescError,
    AteDrop,
    AteDelay,
    MbcDrop,
    CoreStall,
    MemDegrade,
    LinkDrop,
    LinkDelay,
    RackNetDrop,
    RackNetDelay,
    RackBoardDown,
    RackBoardCrash,
};

/** Number of FaultSite values. */
constexpr unsigned nFaultSites = 13;

/** Spec-string name ("dms.wedge", ...) of a site. */
const char *faultSiteName(FaultSite site);

/** One parsed fault rule (see file header for the grammar). */
struct FaultRule
{
    FaultSite site = FaultSite::DmsWedge;
    double p = 1.0;            ///< per-opportunity probability
    std::uint64_t nth = 0;     ///< fire every nth opportunity (0=off)
    Tick from = 0;             ///< active window start (inclusive)
    Tick to = maxTick;         ///< active window end (exclusive)
    std::uint64_t max = ~0ull; ///< firing budget (per domain)
    std::uint64_t mag = 0;     ///< site-specific magnitude
    int unit = -1;             ///< unit filter (-1 = any)

    /** Per-domain runtime state (index = execution domain). */
    struct DomainState
    {
        std::uint64_t seen = 0;  ///< opportunities examined
        std::uint64_t fired = 0; ///< faults injected
        Rng rng{0};
    };

    std::vector<DomainState> dom;
    std::uint64_t ruleSeed = 0;
};

/** The process-wide fault scheduler. Use sim::faultPlane(). */
class FaultPlane
{
  public:
    /**
     * Parse @p spec and arm the plane; an empty spec is reset().
     * Fatal on malformed specs (they are configuration, not data).
     */
    void configure(const std::string &spec, std::uint64_t seed = 0);

    /** Drop every rule and the "fault" stat group; plane goes inert. */
    void reset();

    /** True when any rule is loaded (hook points gate on this). */
    bool active() const { return !rules.empty(); }

    /** The spec the plane was configured with ("" when inert). */
    const std::string &spec() const { return specStr; }

    /**
     * One injection opportunity at @p site for unit @p unit at tick
     * @p now. @return true when a fault fires; @p magnitude (when
     * non-null) receives the winning rule's mag.
     */
    bool fires(FaultSite site, Tick now, int unit = -1,
               std::uint64_t *magnitude = nullptr);

    /** Cheap gate for the DDR hot path. */
    bool hasMemFault() const { return memRules != 0; }

    /**
     * DDR burst-time multiplier at @p now (>= 1): the product of
     * every active mem.degrade rule's magnitude. A degraded burst
     * is one injection, however many rules overlap it.
     */
    std::uint64_t memBwDivisor(Tick now);

    /**
     * Make the plane ready for domains [0, @p n): sizes every rule's
     * per-domain state (the EpochRunner calls this for its
     * partitions). Host-phase only; existing domain streams are
     * untouched.
     */
    void ensureDomains(unsigned n);

    /** Domains the plane is sized for (>= 1 once configured). */
    unsigned domains() const { return nDomains; }

    /** Faults injected at @p site since configure(), all domains:
     *  its "fault" cell. */
    std::uint64_t
    injected(FaultSite site) const
    {
        return stats ? stats->get(faultSiteName(site)) : 0;
    }

    /** Total faults injected since configure(). */
    std::uint64_t injectedTotal() const;

    /** The "fault" stat group; nullptr while inert. */
    StatGroup *statGroup() { return stats.get(); }

    /** Parsed rules (tests introspect firing budgets). */
    const std::vector<FaultRule> &ruleSet() const { return rules; }

    /**
     * A randomized but seed-deterministic chaos spec: 1-3 rules
     * drawn from every site with bounded probabilities/magnitudes.
     * Same @p seed => same spec string.
     */
    static std::string randomSpec(std::uint64_t seed);

  private:
    /** Seed domain @p d of rule @p r (0 replays the pre-domain
     *  single stream). */
    static void seedDomain(FaultRule &r, unsigned d);

    /** Add a row of injection counters for each domain up to
     *  nDomains that has none. */
    void addInjectionRows();

    /** Domain @p d's injection counter for @p site. */
    Counter &
    injectionsAt(unsigned d, FaultSite site)
    {
        return injections[std::size_t(d) * nFaultSites + unsigned(site)];
    }

    std::vector<FaultRule> rules;
    unsigned memRules = 0;
    unsigned nDomains = 1;
    std::string specStr;
    std::unique_ptr<StatGroup> stats;
    /** Injections per (domain, site), domain-major, counted into the
     *  "fault" group's site cells; empty while inert. */
    std::deque<Counter> injections;
};

/** The process-wide fault plane (the simulator is one thread).
 *  Inline: the DDR, DMS and dispatch hooks read it on every access,
 *  and for most runs find it inert. */
inline FaultPlane &
faultPlane()
{
    static FaultPlane plane;
    return plane;
}

} // namespace dpu::sim

#endif // DPU_SIM_FAULT_HH
