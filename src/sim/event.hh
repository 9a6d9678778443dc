/**
 * @file
 * Intrusive simulation events.
 *
 * An Event is a schedulable object with a fixed vtable slot
 * (process()) and its own queue bookkeeping (firing tick, heap
 * slot), so scheduling it costs no allocation: the queue's heap
 * holds a pointer to the object itself. Long-lived simulation
 * blocks embed their recurring events as members (a dpCore's
 * wakeup, a DMAD channel's pipeline step) and re-schedule the same
 * object forever.
 *
 * Every event carries a subsystem tag (EvTag) so the event-kernel
 * self-profiler can attribute executed-event counts and wall time
 * per block; see EventQueue::publishStats().
 */

#ifndef DPU_SIM_EVENT_HH
#define DPU_SIM_EVENT_HH

#include <cstddef>
#include <cstdint>

#include "sim/inplace_fn.hh"
#include "sim/types.hh"

namespace dpu::sim {

class EventQueue;

/** Subsystem attribution for the event-kernel self-profiler. */
enum class EvTag : std::uint8_t {
    Generic = 0, ///< untagged / test events
    Core,        ///< dpCore wakeups and sync points
    Dms,         ///< DMAD/DMAC/DMAX pipeline steps
    Ate,         ///< ATE message hops and RPC completions
    Mbc,         ///< mailbox deliveries
    Mem,         ///< cache / DDR transactions
    Soc,         ///< chip-level glue
    Host,        ///< A9 host complex & offload scheduler
    Link,        ///< inter-DPU board fabric deliveries
};

/** Number of EvTag values (profiler array sizing). */
constexpr unsigned nEvTags = 9;

/** Lower-case tag name ("core", "dms", ...) for stat keys. */
const char *evTagName(EvTag t);

/**
 * Base class for schedulable events. Instances are intrusively
 * held by the queue, so an Event may be scheduled on at most
 * one queue at a time, and at most once; use reschedule() or a
 * second Event member for overlapping occurrences. Destroying a
 * scheduled event deschedules it first.
 */
class Event
{
  public:
    explicit Event(EvTag tag = EvTag::Generic) : tag_(tag) {}
    virtual ~Event();

    Event(const Event &) = delete;
    Event &operator=(const Event &) = delete;

    /** The event's action, run when simulated time reaches when().
     *  The event is already unlinked, so process() may freely
     *  re-schedule the same object (periodic patterns). */
    virtual void process() = 0;

    /** Debug/trace name. */
    virtual const char *name() const { return "event"; }

    /** Scheduled firing time (valid while scheduled()). */
    Tick when() const { return when_; }

    /** True while pending on a queue. */
    bool scheduled() const { return queue_ != nullptr; }

    EvTag tag() const { return tag_; }

  private:
    friend class EventQueue;

    EventQueue *queue_ = nullptr; ///< owning queue while scheduled
    Event *next_ = nullptr;       ///< callback-pool free list link
    Tick when_ = 0;
    std::size_t heapIdx_ = 0; ///< heap slot while scheduled
    bool poolOwned_ = false;  ///< queue returns it to the pool
  protected:
    EvTag tag_;
};

/**
 * A self-re-arming event for per-cycle (or per-anything) tickers:
 * fires fn every period ticks from start() until cancel(), reusing
 * the same object — no allocator or pool traffic per tick.
 */
class PeriodicEvent : public Event
{
  public:
    using Fn = InplaceFn<80>;

    PeriodicEvent(EventQueue &eq, Tick period, Fn fn,
                  EvTag tag = EvTag::Generic);
    ~PeriodicEvent() override;

    /** Arm; first firing at absolute tick @p first (>= now). */
    void start(Tick first);

    /** Arm; first firing @p delta ticks from now. */
    void startIn(Tick delta);

    /** Disarm; safe to call when idle. A cancelled ticker can be
     *  re-armed with start()/startIn(). */
    void cancel();

    /** True between start() and cancel(). */
    bool active() const { return armed; }

    Tick period() const { return periodTicks; }

    /** Change the period; applies from the next re-arm on. */
    void setPeriod(Tick p) { periodTicks = p; }

    void process() final;
    const char *name() const override { return "periodic"; }

  private:
    EventQueue &eq;
    Tick periodTicks;
    Fn fn;
    bool armed = false;
};

} // namespace dpu::sim

#endif // DPU_SIM_EVENT_HH
