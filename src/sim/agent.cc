#include "sim/agent.hh"

#include "sim/logging.hh"

namespace dpu::sim {

Agent::Agent(EventQueue &eq_, EvTag tag, const char *name)
    : eq(eq_), resumeEvent(*this, tag, name)
{
}

void
Agent::start(Body body)
{
    sim_assert(state == State::Idle || state == State::Done,
               "%s: agent already running", resumeEvent.name());
    program = std::move(body);
    fiber = std::make_unique<Fiber>([this] { program(); });
    state = State::Ready;
    eq.scheduleIn(0, resumeEvent);
}

void
Agent::resume()
{
    // Blocked: a bounded wait's deadline fired.
    sim_assert(state == State::Ready || state == State::Sleeping ||
                   state == State::Blocked,
               "%s: resumed in bad state %d", resumeEvent.name(),
               int(state));
    state = State::Running;
    fiber->resume();
    if (fiber->finished())
        state = State::Done;
}

void
Agent::ResumeEvent::process()
{
    a.resume();
}

void
Agent::wakeBy(Tick when)
{
    when = std::max(when, eq.now());
    if (state != State::Blocked || when >= deadline)
        return;
    deadline = when;
    if (resumeEvent.scheduled())
        eq.deschedule(resumeEvent);
    eq.schedule(when, resumeEvent);
}

} // namespace dpu::sim
