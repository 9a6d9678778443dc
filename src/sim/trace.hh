/**
 * @file
 * Low-overhead simulation event tracer.
 *
 * Components record spans (descriptor lifecycles, RPC round trips,
 * DDR transactions, pipeline stalls) and instants/counters into a
 * ring of POD records that grows as records arrive, up to a fixed
 * capacity, then overwrites its oldest; export produces Chrome
 * trace-event JSON that loads directly in Perfetto / chrome://tracing
 * with one process ("pid") per subsystem — per chip and subsystem on
 * a board — and one named thread track ("tid") per unit (dpCore,
 * DMAD channel, DMAC engine, DDR channel).
 *
 * Design rules:
 *  - Disarmed cost is one inline load+branch per site; no ring is
 *    allocated until an armed tracer records into it.
 *  - Record names and argument keys must be string literals (static
 *    storage duration) — records store the pointers only.
 *  - Timestamps are simulation ticks (picoseconds), taken from the
 *    clock domain of the recording component (a dpCore's lazy clock
 *    or the global event queue); the exporter sorts records, so
 *    per-track timestamp order in the JSON is monotone.
 *  - Records land in a ring PER EXECUTION DOMAIN (sim/domain.hh):
 *    the epoch runner gives each partition (on a board, each DPU)
 *    its own domain and sizes the tracer for it, so
 *    concurrent partitions never share a ring, and span ids carry
 *    the domain in their high 32 bits so id streams are
 *    partition-local too. Export merges the rings on (timestamp,
 *    domain, local order) — a total order independent of thread
 *    interleaving, so a parallel run's trace is byte-identical to
 *    the serial one.
 *    Domain 0 is the default and replays the pre-domain tracer
 *    exactly (same ids, same order) for single-chip runs.
 *  - Spans use Chrome "async" begin/end pairs ('b'/'e') keyed by a
 *    tracer-issued id, so overlapping operations on one track (e.g.
 *    4 outstanding DMS descriptors) pair up unambiguously.
 *
 * Arming: programmatically via tracer().arm(), or from the
 * environment — DPU_TRACE=out.json (capacity: DPU_TRACE_CAP records)
 * arms at the first Soc construction and writes the file at exit.
 * Disarmed, each macro costs one branch on armed().
 */

#ifndef DPU_SIM_TRACE_HH
#define DPU_SIM_TRACE_HH

#include <cstdint>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "sim/domain.hh"
#include "sim/types.hh"

namespace dpu::sim {

/** Trace "process": one per subsystem, a top-level Perfetto group. */
enum class TraceCat : std::uint8_t
{
    Core = 1, ///< dpCore pipelines (stalls, multiplier, ISRs)
    Dms = 2,  ///< DMAD channels + DMAC engines
    Ate = 3,  ///< RPC fabric
    Ddr = 4,  ///< the DDR channel
    Soc = 5,  ///< chip-level tools (coherence checker, host)
};

/**
 * Well-known track ("tid") numbering within TraceCat::Dms.
 * Per-core DMAD tracks use tid = global core id (< 0x100); DMAC
 * engine tracks are offset by a per-kind base so no two complexes
 * collide.
 */
namespace dmstrack {
constexpr std::uint32_t loadEngine = 0x100;  ///< + global DMAX index
constexpr std::uint32_t storeEngine = 0x200; ///< + global DMAX index
constexpr std::uint32_t hashEngine = 0x300;  ///< + complex base core
constexpr std::uint32_t partPipe = 0x400;    ///< + complex base core
} // namespace dmstrack

/** One trace record; all pointers must be string literals. */
struct TraceRecord
{
    Tick ts = 0;
    Tick dur = 0;              ///< 'X' records only
    std::uint64_t a0 = 0, a1 = 0;
    const char *name = nullptr;
    const char *k0 = nullptr;  ///< arg key (nullptr = absent)
    const char *k1 = nullptr;
    std::uint64_t id = 0;      ///< async span pairing id
    std::uint32_t tid = 0;
    char ph = 'i';             ///< 'b','e','X','i','C'
    std::uint8_t pid = 0;      ///< TraceCat
};
static_assert(sizeof(TraceRecord) == 72);

/**
 * The global tracer: one record ring per execution domain. Arming,
 * clearing and export are host-phase operations; record() and
 * nextId() are safe from parallel partitions because each only
 * touches its current domain's state.
 */
class Tracer
{
  public:
    /** Default per-domain ring capacity (records). ~72 B each. */
    static constexpr std::size_t defaultCapacity = 1u << 20;

    Tracer() { doms.push_back(std::make_unique<Domain>()); }

    bool armed() const { return isArmed; }

    /** Enable recording into empty per-domain rings that each hold
     *  up to @p capacity records, and restart the id streams. */
    void arm(std::size_t capacity = defaultCapacity);

    /** Stop recording (the rings' contents stay exportable). */
    void disarm() { isArmed = false; }

    /** Drop every record (and any pending drop count), free the
     *  rings and restart the id streams. */
    void clear();

    /**
     * Make domains [0, @p n) ready to record (the EpochRunner calls
     * this for its partitions). Host-phase only; allocates no ring.
     * Records from a domain the tracer was never sized for fall back
     * to domain 0.
     */
    void ensureDomains(unsigned n);

    /** Records currently held, all domains (<= capacity * doms). */
    std::size_t size() const;

    /** Records overwritten because a ring was full, all domains. */
    std::uint64_t dropped() const;

    /** Fresh id for pairing an async begin with its end. Ids are
     *  per-domain streams, so they never depend on cross-partition
     *  interleaving: the domain in the high 32 bits, its own count
     *  in the low 32, so no two domains share an id. */
    std::uint64_t
    nextId()
    {
        const unsigned d = domIndex();
        return (std::uint64_t(d) << 32) | ++doms[d]->lastId;
    }

    /** Append one record (call sites go through the macros). */
    void
    record(char ph, TraceCat cat, std::uint32_t tid, const char *name,
           Tick ts, Tick dur = 0, std::uint64_t id = 0,
           const char *k0 = nullptr, std::uint64_t a0 = 0,
           const char *k1 = nullptr, std::uint64_t a1 = 0)
    {
        if (!isArmed)
            return;
        Domain &dom = *doms[domIndex()];
        const TraceRecord r{ts, dur, a0, a1, name, k0, k1, id, tid, ph,
                            std::uint8_t(cat)};
        if (dom.ring.size() < cap)
            dom.ring.push_back(r);
        else
            dom.ring[dom.total % cap] = r;
        ++dom.total;
    }

    /**
     * Give track (cat, tid) a display name ("core3", "dmax1.load").
     * Cheap and callable while disarmed (the SoC registers names at
     * construction so late arming still exports labelled tracks).
     */
    void nameTrack(TraceCat cat, std::uint32_t tid, std::string name);

    /**
     * Write the rings as Chrome trace-event JSON ("traceEvents"
     * array; ts/dur in microseconds), sorted by timestamp, with
     * process_name / thread_name metadata for every named track.
     * Domain 0's records keep pid = TraceCat; domain d > 0 (chip d
     * of a board) exports under pids 8 * d + TraceCat, in processes
     * named "dpu<d> <subsystem>".
     */
    void exportJson(std::ostream &os) const;

    /**
     * Arm from the environment exactly once per process: DPU_TRACE
     * names the output file, DPU_TRACE_CAP overrides the capacity.
     * Registers an atexit hook that writes the file.
     */
    void armFromEnvOnce();

    /** Write the JSON to the DPU_TRACE path now (no-op otherwise). */
    void flushToFileIfArmed();

  private:
    /** One domain's ring + bookkeeping (never moved once built, so
     *  parallel recorders hold stable references). */
    struct Domain
    {
        /** Its oldest record is ring[total % cap] once full. */
        std::vector<TraceRecord> ring;
        std::uint64_t total = 0; ///< records ever written
        std::uint32_t lastId = 0; ///< span ids drawn
    };

    /** The calling thread's domain, clamped to the sized range. */
    unsigned
    domIndex() const
    {
        const unsigned d = currentDomain();
        return d < doms.size() ? d : 0;
    }

    bool isArmed = false;
    std::size_t cap = defaultCapacity;
    std::vector<std::unique_ptr<Domain>> doms;
    std::string outPath;
    bool envChecked = false;
    std::map<std::pair<std::uint8_t, std::uint32_t>, std::string>
        trackNames;
};

/** The process-wide tracer instance. */
inline Tracer &
tracer()
{
    static Tracer t;
    return t;
}

} // namespace dpu::sim

/** True when the tracer is armed (hot-path guard). */
#define DPU_TRACE_ARMED (::dpu::sim::tracer().armed())

/** Id for a new span. */
#define DPU_TRACE_NEXT_ID() (::dpu::sim::tracer().nextId())

#define DPU_TRACE_SPAN_BEGIN(cat, tid, name, id, ts, k0, v0, k1, v1) \
    ::dpu::sim::tracer().record('b', (cat), (tid), (name), (ts), 0,  \
                                (id), (k0), (v0), (k1), (v1))

#define DPU_TRACE_SPAN_END(cat, tid, name, id, ts)                   \
    ::dpu::sim::tracer().record('e', (cat), (tid), (name), (ts), 0,  \
                                (id))

#define DPU_TRACE_COMPLETE(cat, tid, name, ts, dur, k0, v0, k1, v1)  \
    ::dpu::sim::tracer().record('X', (cat), (tid), (name), (ts),     \
                                (dur), 0, (k0), (v0), (k1), (v1))

#define DPU_TRACE_INSTANT(cat, tid, name, ts, k0, v0)                \
    ::dpu::sim::tracer().record('i', (cat), (tid), (name), (ts), 0,  \
                                0, (k0), (v0))

#define DPU_TRACE_COUNTER(cat, tid, name, ts, k0, v0, k1, v1)        \
    ::dpu::sim::tracer().record('C', (cat), (tid), (name), (ts), 0,  \
                                0, (k0), (v0), (k1), (v1))

#endif // DPU_SIM_TRACE_HH
