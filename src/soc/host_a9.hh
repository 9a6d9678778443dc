/**
 * @file
 * The ARM Cortex-A9 host complex, thinly modelled (Section 2.4).
 *
 * On the chip the dual-core A9 runs Linux, the Infiniband/PCIe
 * network stack, and the offload driver that feeds work to the
 * dpCores; all evaluation-relevant interaction happens through the
 * MailBox Controller ("sending a pointer to a buffer in memory,
 * while the bulk of the data is communicated through main memory").
 * This model runs host software as a fiber (sim::Agent, the same
 * protocol a dpCore runs on) at a (slower) A9 clock, exchanging
 * pointer-sized messages with the dpCores over the MBC. The Soc
 * builds one per chip (Soc::a9()).
 */

#ifndef DPU_SOC_HOST_A9_HH
#define DPU_SOC_HOST_A9_HH

#include <functional>

#include "mbc/mbc.hh"
#include "sim/agent.hh"
#include "sim/event_queue.hh"

namespace dpu::soc {

/** The A9 host complex's software environment. */
class HostA9
{
  public:
    /** Host program: blocking C++ against this class's API. */
    using HostFn = std::function<void(HostA9 &)>;

    HostA9(sim::EventQueue &eq, mbc::Mbc &mbc);

    /** Start @p fn on the A9 at the current tick. */
    void
    start(HostFn fn)
    {
        agent.start([this, fn = std::move(fn)] { fn(*this); });
    }

    bool finished() const { return agent.finished(); }

    // ------------------------------------------------------------
    // Host-side primitives (call from inside the host program)
    // ------------------------------------------------------------

    /** Post a pointer-sized message to dpCore @p core's mailbox. */
    void sendToCore(unsigned core, std::uint64_t msg);

    /**
     * Block until a message arrives or the absolute @p deadline
     * passes, whichever is first; sim::maxTick waits unbounded, and
     * a deadline at or before now() polls. @return true and fill
     * @p msg on delivery; false on timeout (any message that races
     * the deadline at the same tick stays queued for the next
     * receive).
     */
    bool recvUntil(sim::Tick deadline, std::uint64_t &msg);

    /** Block until a message arrives on the A9 mailbox. */
    std::uint64_t
    recv()
    {
        std::uint64_t msg = 0;
        recvUntil(sim::maxTick, msg);
        return msg;
    }

    /** Burn host time (driver work, syscalls...). The A9 runs at
     *  a fraction of the dpCore clock; @p us is wall microseconds.
     *  Arriving messages do not cut it short. */
    void
    busyUs(double us)
    {
        agent.sleepUntil(now() + sim::Tick(us * 1e6));
    }

    sim::Tick now() const { return eq.now(); }

    // ------------------------------------------------------------
    // Host phase (between runs, from outside the host program)
    // ------------------------------------------------------------

    /**
     * Move a blocked recvUntil's deadline in to @p when (clamped to
     * now()), so the wait returns false there: a host program fed
     * between runs wakes on its new work. Never moves a deadline
     * later, and does nothing unless the program is blocked in
     * recvUntil.
     */
    void wakeBy(sim::Tick when) { agent.wakeBy(when); }

  private:
    sim::EventQueue &eq;
    mbc::Mbc &mbcRef;
    sim::Agent agent{eq, sim::EvTag::Host, "a9.resume"};
};

} // namespace dpu::soc

#endif // DPU_SOC_HOST_A9_HH
