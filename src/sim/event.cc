/**
 * @file
 * Event base-class out-of-line pieces (anything that needs the full
 * EventQueue definition).
 */

#include "sim/event.hh"

#include "sim/event_queue.hh"

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

} // namespace dpu::sim
