/**
 * @file
 * Intrusive simulation events.
 *
 * An Event is a schedulable object with a fixed vtable slot
 * (process()) and its own queue link (owning queue, firing tick),
 * so scheduling it costs no allocation: the queue's heap holds a
 * pointer to the object itself. Long-lived simulation blocks embed
 * their recurring events as members (a dpCore's wakeup, a DMAD
 * channel's pipeline step) and re-schedule the same object from
 * process() or from the fiber it wakes.
 *
 * Every event carries a subsystem tag (EvTag) so the event-kernel
 * self-profiler can attribute executed-event counts and wall time
 * per block; see EventQueue::profile().
 */

#ifndef DPU_SIM_EVENT_HH
#define DPU_SIM_EVENT_HH

#include <cstdint>

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
 * one queue at a time, and at most once; use a second Event member
 * for overlapping occurrences. Destroying a scheduled event
 * deschedules it first.
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
     *  re-schedule the same object. */
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
    bool poolOwned_ = false; ///< queue returns it to the pool
  protected:
    EvTag tag_;
};

} // namespace dpu::sim

#endif // DPU_SIM_EVENT_HH
