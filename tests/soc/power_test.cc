/**
 * @file
 * Power-model tests (Section 2.5, Figure 5): the breakdown sums to
 * the designed 5.8 W, leakage exceeds 37%, per-core dynamic power
 * matches the published 51 mW, and the M0's power states /
 * per-macro gating reduce total power monotonically.
 */

#include <gtest/gtest.h>

#include <numeric>

#include "soc/power.hh"

using namespace dpu::soc;

TEST(Power, BreakdownSumsToDesignPower)
{
    PowerModel pm(dpu40nm());
    double sum = 0;
    for (const auto &c : pm.breakdown())
        sum += c.watts;
    EXPECT_NEAR(sum, 5.8, 1e-9);
}

TEST(Power, LeakageIsOver37Percent)
{
    PowerModel pm(dpu40nm());
    double leak = 0;
    for (const auto &c : pm.breakdown())
        if (c.name == "leakage")
            leak = c.watts;
    EXPECT_GE(leak / 5.8, 0.37);
}

TEST(Power, PerCoreDynamicIs51mW)
{
    EXPECT_NEAR(dpu40nm().coreDynamicW, 0.051, 1e-12);
    PowerModel pm(dpu40nm());
    double cores = 0;
    for (const auto &c : pm.breakdown())
        if (c.name == "dpCores (dynamic)")
            cores = c.watts;
    EXPECT_NEAR(cores, 32 * 0.051, 1e-9);
}

TEST(Power, FullyActiveEqualsDesignPower)
{
    PowerModel pm(dpu40nm());
    EXPECT_NEAR(pm.totalWatts(), 5.8, 1e-9);
}

TEST(Power, GatingStatesReduceMonotonically)
{
    PowerModel pm(dpu40nm());
    double active = pm.totalWatts();
    pm.setMacroState(0, PowerState::ClockGated);
    double gated = pm.totalWatts();
    pm.setMacroState(0, PowerState::Retention);
    double retention = pm.totalWatts();
    pm.setMacroState(0, PowerState::Off);
    double off = pm.totalWatts();
    EXPECT_LT(gated, active);
    EXPECT_LT(retention, gated);
    EXPECT_LT(off, retention);
}

TEST(Power, AllMacrosOffStillLeavesUncorePower)
{
    PowerModel pm(dpu40nm());
    for (unsigned m = 0; m < 4; ++m)
        pm.setMacroState(m, PowerState::Off);
    EXPECT_GT(pm.totalWatts(), 1.0);
    EXPECT_LT(pm.totalWatts(), 5.8);
}

TEST(Power, SixteenNmConfigScales)
{
    PowerModel pm(dpu16nm());
    double sum = 0;
    for (const auto &c : pm.breakdown())
        sum += c.watts;
    EXPECT_NEAR(sum, 12.0, 1e-9);
    // 160 cores at the 16 nm process's per-core dynamic power.
    double cores = 0;
    for (const auto &c : pm.breakdown())
        if (c.name == "dpCores (dynamic)")
            cores = c.watts;
    EXPECT_NEAR(cores, 160 * dpu16nm().coreDynamicW, 1e-9);
}

TEST(Power, StateQueriesRoundTrip)
{
    PowerModel pm(dpu40nm());
    EXPECT_EQ(pm.macroState(2), PowerState::Active);
    pm.setMacroState(2, PowerState::Retention);
    EXPECT_EQ(pm.macroState(2), PowerState::Retention);
}
