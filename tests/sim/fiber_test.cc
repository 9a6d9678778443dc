/**
 * @file
 * Unit tests for the cooperative fiber layer.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <vector>

#include "sim/fiber.hh"

using dpu::sim::Fiber;

namespace {

/** Recurse @p frames deep, each frame holding 1 KiB of stack. */
[[gnu::noinline]] void
descend(int frames)
{
    if (frames == 0)
        return;
    // alloca, not an array: ASan may move a fixed-size array to its
    // heap-allocated fake stack, and the frame must stay on this one.
    auto *frame = static_cast<volatile char *>(__builtin_alloca(1024));
    frame[0] = 1;
    descend(frames - 1);
    frame[1023] = 2;
}

} // namespace

TEST(FiberDeathTest, StackOverflowFaultsOnTheGuardPage)
{
    // Eight one-KiB frames more than the stack holds run several
    // KiB past its bottom; the guard page below the stack must stop
    // the first write there.
    EXPECT_DEATH(
        {
            Fiber f([] { descend(int(Fiber::stackBytes / 1024) + 8); });
            f.resume();
            // Reached only if the overflow went unnoticed. Leave
            // without running destructors over whatever it
            // overwrote, so the test fails as a clean exit instead
            // of passing on an unrelated crash.
            std::_Exit(0);
        },
        "");
}

TEST(Fiber, RunsToCompletion)
{
    bool ran = false;
    Fiber f([&] { ran = true; });
    f.resume();
    EXPECT_TRUE(ran);
    EXPECT_TRUE(f.finished());
}

TEST(Fiber, YieldSuspendsAndResumes)
{
    std::vector<int> order;
    Fiber f([&] {
        order.push_back(1);
        Fiber::current()->yield();
        order.push_back(3);
    });
    f.resume();
    order.push_back(2);
    EXPECT_FALSE(f.finished());
    f.resume();
    EXPECT_TRUE(f.finished());
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Fiber, CurrentTracksExecutingFiber)
{
    EXPECT_EQ(Fiber::current(), nullptr);
    Fiber *seen = nullptr;
    Fiber f([&] { seen = Fiber::current(); });
    f.resume();
    EXPECT_EQ(seen, &f);
    EXPECT_EQ(Fiber::current(), nullptr);
}

TEST(Fiber, ManyYields)
{
    int count = 0;
    Fiber f([&] {
        for (int i = 0; i < 100; ++i) {
            ++count;
            Fiber::current()->yield();
        }
    });
    for (int i = 0; i < 100; ++i)
        f.resume();
    EXPECT_EQ(count, 100);
    EXPECT_FALSE(f.finished());
    f.resume();
    EXPECT_TRUE(f.finished());
}

TEST(Fiber, InterleavedFibers)
{
    std::vector<int> order;
    Fiber a([&] {
        order.push_back(1);
        Fiber::current()->yield();
        order.push_back(3);
    });
    Fiber b([&] {
        order.push_back(2);
        Fiber::current()->yield();
        order.push_back(4);
    });
    a.resume();
    b.resume();
    a.resume();
    b.resume();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

TEST(Fiber, LocalStateSurvivesYield)
{
    long sum = 0;
    Fiber f([&] {
        long local = 0;
        for (int i = 1; i <= 10; ++i) {
            local += i;
            Fiber::current()->yield();
        }
        sum = local;
    });
    while (!f.finished())
        f.resume();
    EXPECT_EQ(sum, 55);
}
