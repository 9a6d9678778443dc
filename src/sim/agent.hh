/**
 * @file
 * The fiber protocol every on-chip agent runs its program through.
 *
 * A dpCore and the A9 host complex each run their software as one
 * cooperative fiber (sim/fiber.hh) that wakes through one member
 * resume event, the only event the agent schedules for itself. An
 * Agent holds both, and the one state machine that says when that
 * event may be armed:
 *
 *  - start() arms it now, from Idle or Done;
 *  - sleepUntil() arms it at the end of a stretch of simulated time
 *    nothing cuts short (a dpCore's lazy-clock sync, the A9's
 *    busyUs);
 *  - block() waits for a wake() and arms it only at a finite
 *    deadline;
 *  - wake() ends a blocked stretch, pulling an armed deadline in but
 *    never out; wakeBy() lowers a blocked wait's deadline instead,
 *    so the wait times out there;
 *  - a waker that can outlive its wait (a DMS event edge armed by a
 *    wait that then times out) passes that wait's waitId() to
 *    wake(), so it cannot end a later wait.
 *
 * So at most one resume is pending per agent (the queue's
 * already-scheduled assertion enforces it), and a bounded wait that
 * ends early leaves nothing queued behind it. MGSim likewise runs
 * every on-chip component through one kernel process abstraction.
 */

#ifndef DPU_SIM_AGENT_HH
#define DPU_SIM_AGENT_HH

#include <algorithm>
#include <cstdint>
#include <memory>

#include "sim/event_queue.hh"
#include "sim/fiber.hh"
#include "sim/inplace_fn.hh"

namespace dpu::sim {

/** One fiber and its resume event. */
class Agent
{
  public:
    /** The program a fiber runs. Its captures (the owner and the
     *  owner's own std::function) live inline in the agent, so a
     *  start allocates nothing but the fiber: a body on the heap for
     *  a run's length fragments it (board_reshard's peak RSS read 4%
     *  higher). */
    using Body = InplaceFn<40>;

    /** @p tag and @p name label the resume event for the profiler
     *  and the event queue's diagnostics. */
    Agent(EventQueue &eq, EvTag tag, const char *name);

    Agent(const Agent &) = delete;
    Agent &operator=(const Agent &) = delete;

    /** Run @p body as a fresh fiber from the current tick. */
    void start(Body body);

    /** True once the body has returned. */
    bool finished() const { return state == State::Done; }

    /** True while this agent's fiber is the one executing. */
    bool running() const { return Fiber::current() == fiber.get(); }

    // ------------------------------------------------------------
    // From inside the body
    // ------------------------------------------------------------

    /** Yield until tick @p t (>= now); nothing wakes it earlier. */
    void
    sleepUntil(Tick t)
    {
        state = State::Sleeping;
        eq.schedule(t, resumeEvent);
        fiber->yield();
    }

    /**
     * One blocked stretch: yield until wake() or the wait's
     * deadline @p until, whichever is first (sim::maxTick arms
     * nothing). @return the deadline as wakeBy() may have lowered
     * it, for the wait's next stretch.
     */
    Tick
    block(Tick until)
    {
        state = State::Blocked;
        deadline = until;
        if (until != maxTick)
            eq.schedule(until, resumeEvent);
        fiber->yield();
        return deadline;
    }

    /** Open a new wait: a waker armed under an earlier waitId() can
     *  no longer end a blocked stretch. */
    void beginWait() { ++waits; }

    /** The current wait, for wakers that must end only it. */
    std::uint64_t waitId() const { return waits; }

    // ------------------------------------------------------------
    // From events and the host phase
    // ------------------------------------------------------------

    /** End a blocked stretch at @p when (clamped to now), or at its
     *  armed deadline if that comes first; does nothing unless the
     *  agent is blocked. */
    void
    wake(Tick when)
    {
        if (state != State::Blocked)
            return;
        state = State::Sleeping;
        when = std::max(when, eq.now());
        if (resumeEvent.scheduled()) {
            if (resumeEvent.when() < when)
                return;
            eq.deschedule(resumeEvent);
        }
        eq.schedule(when, resumeEvent);
    }

    /** wake(@p when), if wait @p wait is still the current one. */
    void
    wake(Tick when, std::uint64_t wait)
    {
        if (wait == waits)
            wake(when);
    }

    /** Lower a blocked wait's deadline to @p when (clamped to now),
     *  so the wait returns false there. Never raises a deadline, and
     *  does nothing unless the agent is blocked. */
    void wakeBy(Tick when);

  private:
    enum class State { Idle, Ready, Running, Sleeping, Blocked, Done };

    void resume();

    class ResumeEvent final : public Event
    {
      public:
        ResumeEvent(Agent &a_, EvTag tag, const char *name_)
            : Event(tag), a(a_), nm(name_)
        {
        }
        void process() override;
        const char *name() const override { return nm; }

      private:
        Agent &a;
        const char *nm;
    };

    EventQueue &eq;
    ResumeEvent resumeEvent;
    std::unique_ptr<Fiber> fiber;
    State state = State::Idle;
    /** The blocked stretch's deadline, as wakeBy() may lower it. */
    Tick deadline = maxTick;
    std::uint64_t waits = 0;
    /** Last: every switch reads the members above, none reads it. */
    Body program;
};

} // namespace dpu::sim

#endif // DPU_SIM_AGENT_HH
