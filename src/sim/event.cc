/**
 * @file
 * Event base-class and PeriodicEvent out-of-line pieces (anything
 * that needs the full EventQueue definition).
 */

#include "sim/event.hh"

#include "sim/event_queue.hh"
#include "sim/logging.hh"

namespace dpu::sim {

const char *
evTagName(EvTag t)
{
    switch (t) {
      case EvTag::Generic: return "generic";
      case EvTag::Core: return "core";
      case EvTag::Dms: return "dms";
      case EvTag::Ate: return "ate";
      case EvTag::Mbc: return "mbc";
      case EvTag::Mem: return "mem";
      case EvTag::Soc: return "soc";
      case EvTag::Host: return "host";
      case EvTag::Link: return "link";
    }
    return "?";
}

Event::~Event()
{
    // A still-scheduled event unlinks itself so the queue never
    // fires dangling storage. (When the QUEUE dies first it severs
    // these links instead; queue_ is null then.)
    if (queue_)
        queue_->deschedule(*this);
}

PeriodicEvent::PeriodicEvent(EventQueue &eq_, Tick period, Fn fn_,
                             EvTag tag)
    : Event(tag), eq(eq_), periodTicks(period), fn(std::move(fn_))
{
    sim_assert(period > 0, "periodic event with zero period");
}

PeriodicEvent::~PeriodicEvent()
{
    cancel();
}

void
PeriodicEvent::start(Tick first)
{
    armed = true;
    eq.reschedule(first, *this);
}

void
PeriodicEvent::startIn(Tick delta)
{
    start(eq.now() + delta);
}

void
PeriodicEvent::cancel()
{
    armed = false;
    if (scheduled())
        eq.deschedule(*this);
}

void
PeriodicEvent::process()
{
    fn();
    // The callback may have cancelled or explicitly re-armed; only
    // the still-armed, not-yet-rescheduled case re-arms here.
    if (armed && !scheduled())
        eq.schedule(when() + periodTicks, *this);
}

} // namespace dpu::sim
