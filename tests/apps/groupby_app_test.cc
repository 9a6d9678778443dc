/**
 * @file
 * Group-by tests (Section 5.3): exact aggregation agreement between
 * the DPU plans and the reference in both NDV regimes, and the
 * Figure 14 gain shape (high-NDV gain > low-NDV gain > 1).
 */

#include <gtest/gtest.h>

#include "apps/registry.hh"
#include "apps/sql/groupby.hh"

using namespace dpu;
using namespace dpu::apps;
using namespace dpu::apps::sql;

TEST(GroupByApp, LowNdvExactAggregation)
{
    AppResult r = runApp("groupby-low",
                         {{"nRows", "262144"}, {"ndv", "64"}});
    EXPECT_TRUE(r.matched);
}

TEST(GroupByApp, LowNdvGainNearPaper)
{
    AppResult r = runApp("groupby-low",
                         {{"nRows", "1048576"}, {"ndv", "256"}});
    EXPECT_TRUE(r.matched);
    // Figure 14: 6.7x. Both sides bandwidth-bound; the gain is the
    // bandwidth-per-watt ratio.
    EXPECT_GT(r.gain(), 4.5);
    EXPECT_LT(r.gain(), 9.5);
}

TEST(GroupByApp, HighNdvExactAggregation)
{
    AppResult r = runApp("groupby-high",
                         {{"nRows", "262144"}, {"ndv", "65536"}});
    EXPECT_TRUE(r.matched);
}

TEST(GroupByApp, HighNdvGainExceedsLowNdv)
{
    AppResult rl = runApp("groupby-low",
                          {{"nRows", "1048576"}, {"ndv", "256"}});
    AppResult rh = runApp("groupby-high",
                          {{"nRows", "1048576"}, {"ndv", "262144"}});
    EXPECT_TRUE(rl.matched);
    EXPECT_TRUE(rh.matched);
    // Figure 14: 9.7x vs 6.7x — one hardware round beats two
    // software rounds.
    EXPECT_GT(rh.gain(), rl.gain());
    EXPECT_GT(rh.gain(), 6.0);
    EXPECT_LT(rh.gain(), 16.0);
}

TEST(GroupByAppDeathTest, HighNdvTableOverflowEndsTheRun)
{
    // Phase B aggregates each of the 1,024 partitions in a 1,024-slot
    // DMEM table. At ndv 2M a partition holds about 1,300 distinct
    // keys, so the linear probe finds the table full: the run must
    // end naming the partition and ndv instead of probing forever.
    EXPECT_DEATH(runApp("groupby-high",
                        {{"nRows", "2097152"}, {"ndv", "2097152"}}),
                 "group-by partition [0-9]+ holds more than 1024 "
                 "distinct keys \\(ndv 2097152\\)");
}
