#include "soc/host_a9.hh"

namespace dpu::soc {

HostA9::HostA9(sim::EventQueue &eq_, mbc::Mbc &mbc_)
    : eq(eq_), mbcRef(mbc_)
{
    // The mailbox interrupt handler: a message ends a blocked wait
    // now, whatever deadline it had armed.
    mbcRef.onMessage(mbcRef.a9Box(), [this] { agent.wake(eq.now()); });
}

void
HostA9::sendToCore(unsigned core, std::uint64_t msg)
{
    mbcRef.sendFromHost(core, msg);
}

bool
HostA9::recvUntil(sim::Tick deadline, std::uint64_t &msg)
{
    while (!mbcRef.tryRecv(mbcRef.a9Box(), msg)) {
        if (eq.now() >= deadline)
            return false;
        deadline = agent.block(deadline);
    }
    return true;
}

} // namespace dpu::soc
