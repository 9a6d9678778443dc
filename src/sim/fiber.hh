/**
 * @file
 * Cooperative user-level fibers.
 *
 * Each simulated dpCore (and the A9 host model) runs its software as a
 * fiber: ordinary blocking C++ code that suspends back to the event
 * loop whenever it needs simulated time to pass (cycle charging, DMS
 * wait-for-event, ATE response, mailbox receive). This is the same
 * structure as SystemC SC_THREADs and keeps application kernels
 * looking like the code in the paper's Listing 1.
 *
 * Switching is a raw x86-64 stack switch (callee-saved registers +
 * FP control words, ~a dozen instructions); POSIX ucontext is the
 * portable fallback. glibc's swapcontext makes a sigprocmask system
 * call on every switch, which costs more than the switch itself and
 * dominates RPC-heavy workloads — the simulator never gives fibers
 * distinct signal masks, so nothing is lost by skipping it. Fibers
 * are strictly cooperative and all run on the host thread that owns
 * the event queue, so no locking is needed anywhere in the
 * simulator.
 */

#ifndef DPU_SIM_FIBER_HH
#define DPU_SIM_FIBER_HH

#include <cstdint>
#include <functional>
#include <memory>

#include "sim/zero_pages.hh"

// Sanitized builds keep the ucontext path: it is the reference
// implementation, and CI's ASan job exercises the fiber-switch
// annotations against it.
#if defined(__SANITIZE_ADDRESS__)
#define DPU_FIBER_UCONTEXT 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define DPU_FIBER_UCONTEXT 1
#endif
#endif
#if !defined(DPU_FIBER_UCONTEXT) && !defined(__x86_64__)
#define DPU_FIBER_UCONTEXT 1
#endif
#ifndef DPU_FIBER_UCONTEXT
#define DPU_FIBER_UCONTEXT 0
#endif

#if DPU_FIBER_UCONTEXT
#include <ucontext.h>
#endif

namespace dpu::sim {

/** A cooperative fiber with its own stack. */
class Fiber
{
  public:
    /** Stack size of every fiber. The stack is demand-zero
     *  (sim::ZeroPages), so this is address space: host RAM follows
     *  the deepest call chain, and an overflow faults on the guard
     *  page below it. */
    static constexpr std::size_t stackBytes = 256 * 1024;

    /** Create a fiber that will execute @p fn when first resumed. */
    explicit Fiber(std::function<void()> fn);

    Fiber(const Fiber &) = delete;
    Fiber &operator=(const Fiber &) = delete;
    ~Fiber();

    /**
     * Switch from the scheduler context into this fiber. Returns when
     * the fiber calls yield() or its body returns.
     */
    void resume();

    /**
     * Switch from inside this fiber back to the scheduler context.
     * Must be called from within the fiber.
     */
    void yield();

    /** True once the fiber body has returned. */
    bool finished() const { return done; }

    /** The fiber currently executing, or nullptr in the scheduler. */
    static Fiber *current();

  private:
    static void trampoline();
#if !DPU_FIBER_UCONTEXT
    /** Fabricate the first-entry frame; returns the initial sp. */
    void *initFiberStack();
#endif

    std::function<void()> body;
    ZeroPages stack;
#if DPU_FIBER_UCONTEXT
    ucontext_t ctx;
    ucontext_t returnCtx;
#else
    void *fiberSp = nullptr; ///< fiber's saved stack pointer
    void *schedSp = nullptr; ///< scheduler's saved stack pointer
#endif
    bool started = false;
    bool done = false;
    /** Scheduler stack bounds, captured for ASan fiber switching. */
    const void *schedStackBottom = nullptr;
    std::size_t schedStackSize = 0;
    /** TSan shadow state for this fiber / the context that resumed
     *  it; nullptr outside ThreadSanitizer builds. */
    void *tsanFiber = nullptr;
    void *tsanParent = nullptr;
};

} // namespace dpu::sim

#endif // DPU_SIM_FIBER_HH
