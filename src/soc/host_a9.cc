#include "soc/host_a9.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace dpu::soc {

HostA9::HostA9(sim::EventQueue &eq_, mbc::Mbc &mbc_)
    : eq(eq_), mbcRef(mbc_)
{
    // The mailbox interrupt handler: a message ends a blocked wait
    // now, whatever deadline it had armed.
    mbcRef.onMessage(mbcRef.a9Box(), [this] {
        if (blocked) {
            blocked = false;
            armAt(eq.now());
        }
    });
}

void
HostA9::start(HostFn fn)
{
    sim_assert(!fiber, "A9 program already started");
    program = std::move(fn);
    fiber = std::make_unique<sim::Fiber>([this] { program(*this); });
    eq.scheduleIn(0, resumeEvent);
}

void
HostA9::resume()
{
    fiber->resume();
    if (fiber->finished())
        done = true;
}

void
HostA9::armAt(sim::Tick when)
{
    if (resumeEvent.scheduled())
        eq.deschedule(resumeEvent);
    eq.schedule(when, resumeEvent);
}

void
HostA9::sendToCore(unsigned core, std::uint64_t msg)
{
    mbcRef.sendFromHost(core, msg);
}

bool
HostA9::recvUntil(sim::Tick until, std::uint64_t &msg)
{
    deadline = until;
    while (!mbcRef.tryRecv(mbcRef.a9Box(), msg)) {
        if (eq.now() >= deadline)
            return false;
        blocked = true;
        if (deadline != sim::maxTick)
            eq.schedule(deadline, resumeEvent);
        fiber->yield();
        blocked = false;
    }
    return true;
}

void
HostA9::wakeBy(sim::Tick when)
{
    when = std::max(when, eq.now());
    if (!blocked || when >= deadline)
        return;
    deadline = when;
    armAt(when);
}

void
HostA9::busyUs(double us)
{
    eq.scheduleIn(sim::Tick(us * 1e6), resumeEvent);
    fiber->yield();
}

} // namespace dpu::soc
