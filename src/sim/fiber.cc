#include "sim/fiber.hh"

#include <cstring>

#include "sim/logging.hh"

// AddressSanitizer tracks one shadow stack per thread; every fiber
// switch must be announced or ASan reports false stack-buffer
// overflows / use-after-return across swapcontext. The annotations
// compile away entirely in non-ASan builds.
#if defined(__SANITIZE_ADDRESS__)
#define DPU_ASAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define DPU_ASAN_FIBERS 1
#endif
#endif
#ifndef DPU_ASAN_FIBERS
#define DPU_ASAN_FIBERS 0
#endif

#if DPU_ASAN_FIBERS
#include <sanitizer/common_interface_defs.h>
#endif

// ThreadSanitizer likewise keeps one shadow (clocks, stack) per
// thread of execution; a raw stack switch it cannot see makes it
// attribute one fiber's accesses to another and report phantom
// races. The fiber API lets us announce every switch. The parallel
// board runner keeps each fiber on the one worker thread that owns
// its DPU's partition, so announcing the switches is all TSan needs.
#if defined(__SANITIZE_THREAD__)
#define DPU_TSAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define DPU_TSAN_FIBERS 1
#endif
#endif
#ifndef DPU_TSAN_FIBERS
#define DPU_TSAN_FIBERS 0
#endif

#if DPU_TSAN_FIBERS
#include <sanitizer/tsan_interface.h>
#endif

#if !DPU_FIBER_UCONTEXT

/**
 * Switch stacks: save the callee-saved register state on the current
 * stack, park the stack pointer in *save_sp, and resume from
 * restore_sp. Everything else is caller-saved and spilled by the
 * compiler around the call, so this is the entire context. The
 * frame layout must match the one initFiberStack() fabricates for a
 * fiber's first entry.
 */
extern "C" void dpuFiberSwap(void **save_sp, void *restore_sp);

asm(R"(
        .text
        .align 16
        .globl dpuFiberSwap
        .hidden dpuFiberSwap
        .type dpuFiberSwap, @function
dpuFiberSwap:
        pushq %rbp
        pushq %rbx
        pushq %r12
        pushq %r13
        pushq %r14
        pushq %r15
        subq $8, %rsp
        stmxcsr (%rsp)
        fnstcw 4(%rsp)
        movq %rsp, (%rdi)
        movq %rsi, %rsp
        ldmxcsr (%rsp)
        fldcw 4(%rsp)
        addq $8, %rsp
        popq %r15
        popq %r14
        popq %r13
        popq %r12
        popq %rbx
        popq %rbp
        ret
        .size dpuFiberSwap, .-dpuFiberSwap
)");

#endif // !DPU_FIBER_UCONTEXT

namespace dpu::sim {

namespace {

thread_local Fiber *currentFiber = nullptr;

inline void
asanStartSwitch([[maybe_unused]] void **fake_save,
                [[maybe_unused]] const void *bottom,
                [[maybe_unused]] std::size_t size)
{
#if DPU_ASAN_FIBERS
    __sanitizer_start_switch_fiber(fake_save, bottom, size);
#endif
}

inline void
asanFinishSwitch([[maybe_unused]] void *fake_save,
                 [[maybe_unused]] const void **bottom_old,
                 [[maybe_unused]] std::size_t *size_old)
{
#if DPU_ASAN_FIBERS
    __sanitizer_finish_switch_fiber(fake_save, bottom_old, size_old);
#endif
}

inline void *
tsanCurrentFiber()
{
#if DPU_TSAN_FIBERS
    return __tsan_get_current_fiber();
#else
    return nullptr;
#endif
}

inline void
tsanSwitchTo([[maybe_unused]] void *fiber)
{
#if DPU_TSAN_FIBERS
    __tsan_switch_to_fiber(fiber, 0);
#endif
}

} // namespace

Fiber::Fiber(std::function<void()> fn)
    : body(std::move(fn)), stack(stackBytes)
{
}

Fiber::~Fiber()
{
    // A fiber destroyed mid-flight simply abandons its stack; the
    // simulation tear-down path (Soc::~Soc) only does this after the
    // event queue has stopped, so no callbacks can resume it again.
#if DPU_TSAN_FIBERS
    if (tsanFiber)
        __tsan_destroy_fiber(tsanFiber);
#endif
}

Fiber *
Fiber::current()
{
    return currentFiber;
}

#if !DPU_FIBER_UCONTEXT

void *
Fiber::initFiberStack()
{
    // Build the frame dpuFiberSwap's restore path expects, so the
    // first switch-in "returns" into trampoline():
    //   sp+0   mxcsr | x87 control word (inherited from the creator)
    //   sp+8   r15..rbp (six registers, zeroed)
    //   sp+56  return address = trampoline
    // The SysV ABI wants rsp % 16 == 8 at function entry, i.e. the
    // return-address slot itself 16-aligned... which sp+56 is when
    // sp is aligned down from a 16-byte boundary minus 72.
    std::uintptr_t top =
        reinterpret_cast<std::uintptr_t>(stack.data() + stack.size());
    top &= ~std::uintptr_t(15);
    std::uint8_t *frame = reinterpret_cast<std::uint8_t *>(top) - 72;
    std::memset(frame, 0, 72);
    void (*entry)() = &Fiber::trampoline;
    std::memcpy(frame + 56, &entry, sizeof entry);
    std::uint32_t mxcsr;
    std::uint16_t fcw;
    asm("stmxcsr %0" : "=m"(mxcsr));
    asm("fnstcw %0" : "=m"(fcw));
    std::memcpy(frame + 0, &mxcsr, sizeof mxcsr);
    std::memcpy(frame + 4, &fcw, sizeof fcw);
    return frame;
}

#endif // !DPU_FIBER_UCONTEXT

void
Fiber::trampoline()
{
    Fiber *f = currentFiber;
    // First entry: no fake stack to restore, but learn the
    // scheduler's stack bounds for the switches back out.
    asanFinishSwitch(nullptr, &f->schedStackBottom,
                     &f->schedStackSize);
    f->body();
    f->done = true;
    // Return to whoever resumed us for the last time. nullptr frees
    // this (dying) fiber's ASan fake stack.
    asanStartSwitch(nullptr, f->schedStackBottom, f->schedStackSize);
    tsanSwitchTo(f->tsanParent);
#if DPU_FIBER_UCONTEXT
    swapcontext(&f->ctx, &f->returnCtx);
#else
    dpuFiberSwap(&f->fiberSp, f->schedSp);
#endif
}

void
Fiber::resume()
{
    sim_assert(!done, "resuming a finished fiber");
    sim_assert(currentFiber == nullptr,
               "nested fiber resume is not supported");
    if (!started) {
        started = true;
#if DPU_FIBER_UCONTEXT
        getcontext(&ctx);
        ctx.uc_stack.ss_sp = stack.data();
        ctx.uc_stack.ss_size = stack.size();
        ctx.uc_link = nullptr;
        makecontext(&ctx, reinterpret_cast<void (*)()>(&trampoline), 0);
#else
        fiberSp = initFiberStack();
#endif
#if DPU_TSAN_FIBERS
        tsanFiber = __tsan_create_fiber(0);
#endif
    }
    currentFiber = this;
    void *sched_fake = nullptr;
    asanStartSwitch(&sched_fake, stack.data(), stack.size());
    tsanParent = tsanCurrentFiber();
    tsanSwitchTo(tsanFiber);
#if DPU_FIBER_UCONTEXT
    swapcontext(&returnCtx, &ctx);
#else
    dpuFiberSwap(&schedSp, fiberSp);
#endif
    asanFinishSwitch(sched_fake, nullptr, nullptr);
    currentFiber = nullptr;
}

void
Fiber::yield()
{
    sim_assert(currentFiber == this, "yield from outside the fiber");
    currentFiber = nullptr;
    void *fiber_fake = nullptr;
    asanStartSwitch(&fiber_fake, schedStackBottom, schedStackSize);
    tsanSwitchTo(tsanParent);
#if DPU_FIBER_UCONTEXT
    swapcontext(&ctx, &returnCtx);
#else
    dpuFiberSwap(&fiberSp, schedSp);
#endif
    asanFinishSwitch(fiber_fake, &schedStackBottom, &schedStackSize);
    currentFiber = this;
}

} // namespace dpu::sim
