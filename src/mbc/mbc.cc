#include "mbc/mbc.hh"

#include "sim/fault.hh"
#include "sim/logging.hh"
#include "sim/trace.hh"

namespace dpu::mbc {

namespace {

/** Fault plane: true, counted in @p drops, when the in-flight
 *  message to @p dst is lost (sender-side costs are already paid —
 *  the loss is in transit). */
bool
lostInTransit(sim::EventQueue &eq, unsigned dst, sim::Counter &drops)
{
    if (!sim::faultPlane().active() ||
        !sim::faultPlane().fires(sim::FaultSite::MbcDrop, eq.now(),
                                 int(dst)))
        return false;
    ++drops;
    DPU_TRACE_INSTANT(sim::TraceCat::Soc, dst, "mbcDrop", eq.now(),
                      "dst", dst);
    return true;
}

} // namespace

Mbc::Mbc(sim::EventQueue &eq_, std::vector<core::DpCore *> &cores_)
    : eq(eq_), cores(cores_), stats("mbc"),
      boxes(cores_.size() + 2), handlers(cores_.size() + 2)
{
}

void
Mbc::deliver(unsigned dst, std::uint64_t msg)
{
    boxes[dst].push_back(msg);
    ++delivered;
    if (dst < cores.size() && cores[dst]) {
        // Raise the mailbox interrupt line: wake a blocked receiver.
        cores[dst]->wake(eq.now());
    } else if (handlers[dst]) {
        handlers[dst]();
    }
}

void
Mbc::send(core::DpCore &sender, unsigned dst, std::uint64_t msg)
{
    sim_assert(dst < boxes.size(), "bad mailbox %u", dst);
    // Two memory-mapped register writes (control + data).
    sender.cycles(4);
    sender.sync();
    ++sent;
    if (lostInTransit(eq, dst, dropped))
        return;
    eq.schedule(eq.now() + sim::dpCoreClock.cyclesToTicks(mbcLatency),
                [this, dst, msg] { deliver(dst, msg); },
                sim::EvTag::Mbc);
}

void
Mbc::sendFromHost(unsigned dst, std::uint64_t msg)
{
    sim_assert(dst < boxes.size(), "bad mailbox %u", dst);
    ++sent;
    if (lostInTransit(eq, dst, dropped))
        return;
    eq.schedule(eq.now() + sim::dpCoreClock.cyclesToTicks(mbcLatency),
                [this, dst, msg] { deliver(dst, msg); },
                sim::EvTag::Mbc);
}

std::uint64_t
Mbc::recv(core::DpCore &c)
{
    auto &box = boxes[c.id()];
    c.blockUntil([&box] { return !box.empty(); });
    std::uint64_t msg = box.front();
    box.pop_front();
    // Read of the data register.
    c.cycles(2);
    return msg;
}

bool
Mbc::tryRecv(unsigned mailbox, std::uint64_t &msg)
{
    sim_assert(mailbox < boxes.size(), "bad mailbox %u", mailbox);
    auto &box = boxes[mailbox];
    if (box.empty())
        return false;
    msg = box.front();
    box.pop_front();
    return true;
}

std::size_t
Mbc::depth(unsigned mailbox) const
{
    sim_assert(mailbox < boxes.size(), "bad mailbox %u", mailbox);
    return boxes[mailbox].size();
}

void
Mbc::onMessage(unsigned mailbox, std::function<void()> handler)
{
    sim_assert(mailbox < boxes.size(), "bad mailbox %u", mailbox);
    handlers[mailbox] = std::move(handler);
}

} // namespace dpu::mbc
