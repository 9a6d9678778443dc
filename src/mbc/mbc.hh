/**
 * @file
 * The MailBox Controller (Section 2.4).
 *
 * A hardware queue block with 34 mailboxes — one per dpCore, one for
 * the A9 complex and one for the M0 — for quick exchange of
 * lightweight messages (typically a pointer to a buffer in DRAM)
 * while bulk data moves through main memory. Each mailbox has
 * memory-mapped control/data registers and an interrupt line to its
 * destination.
 */

#ifndef DPU_MBC_MBC_HH
#define DPU_MBC_MBC_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "core/dp_core.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"

namespace dpu::mbc {

/** Mailbox indices for the non-dpCore endpoints on the 40 nm die
 *  (34 mailboxes total: 32 dpCores + A9 + M0, Section 2.4). Larger
 *  configurations get nCores+2 mailboxes; use Mbc::a9Box()/m0Box()
 *  for portability across chip configs. */
constexpr unsigned a9Mailbox = 32;
constexpr unsigned m0Mailbox = 33;

/** Delivery latency through the MBC, in core cycles. */
constexpr sim::Cycles mbcLatency = 30;

/** The mailbox controller. */
class Mbc
{
  public:
    /**
     * @param eq    Event queue.
     * @param cores dpCores, indexed by id, for interrupt delivery.
     */
    Mbc(sim::EventQueue &eq, std::vector<core::DpCore *> &cores);

    /**
     * Send @p msg (a pointer-sized payload) to mailbox @p dst on
     * behalf of a dpCore; charges the sender's register writes.
     */
    void send(core::DpCore &sender, unsigned dst, std::uint64_t msg);

    /** Send from a non-dpCore endpoint (A9 / M0 models). */
    void sendFromHost(unsigned dst, std::uint64_t msg);

    /** Blocking receive on a dpCore's own mailbox. */
    std::uint64_t recv(core::DpCore &c);

    /** Non-blocking poll; returns false when empty. */
    bool tryRecv(unsigned mailbox, std::uint64_t &msg);

    /** Messages waiting in @p mailbox. */
    std::size_t depth(unsigned mailbox) const;

    /** The A9 complex's mailbox index. */
    unsigned a9Box() const { return unsigned(boxes.size()) - 2; }

    /** The M0's mailbox index. */
    unsigned m0Box() const { return unsigned(boxes.size()) - 1; }

    /** Total mailboxes (nCores + 2). */
    unsigned nBoxes() const { return unsigned(boxes.size()); }

    /**
     * Install an interrupt handler for a mailbox owned by a
     * non-dpCore endpoint (the A9 network model uses this).
     */
    void onMessage(unsigned mailbox, std::function<void()> handler);

    sim::StatGroup &statGroup() { return stats; }

  private:
    void deliver(unsigned dst, std::uint64_t msg);

    sim::EventQueue &eq;
    std::vector<core::DpCore *> &cores;
    sim::StatGroup stats;
    /** Per-message counters (see sim/stats.hh). */
    sim::Counter sent{stats, "sent"};
    sim::Counter delivered{stats, "delivered"};
    sim::Counter dropped{stats, "dropped"};
    std::vector<std::deque<std::uint64_t>> boxes;
    std::vector<std::function<void()>> handlers;
};

} // namespace dpu::mbc

#endif // DPU_MBC_MBC_HH
