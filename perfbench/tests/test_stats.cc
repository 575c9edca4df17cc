// Tests of the benchmark's own statistics and trace analysis.

#include <gtest/gtest.h>

#include "stats.h"
#include "trace.h"

using namespace perfbench;

TEST(Percentile, RefusesWithFewerThanTenSamplesBeyond)
{
    std::vector<double> v;
    for (int i = 1; i <= 999; ++i)
        v.push_back(i);
    // p99 of 999 samples is rank 990: only 9 samples lie beyond it.
    EXPECT_FALSE(percentile(v, 99).has_value());
    v.push_back(1000);
    auto p = percentile(v, 99);
    ASSERT_TRUE(p.has_value());
    EXPECT_DOUBLE_EQ(*p, 990.0);
    // p50 needs only 20 samples.
    EXPECT_FALSE(percentile({1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14,
                             15, 16, 17, 18, 19},
                            50)
                     .has_value());
    EXPECT_FALSE(percentile({}, 50).has_value());
}

TEST(Median, OddEvenAndEmpty)
{
    EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2.0);
    EXPECT_DOUBLE_EQ(median({4, 1, 3, 2}), 2.5);
    EXPECT_DOUBLE_EQ(median({}), 0.0);
}

TEST(Geomean, OfPerCaseMeans)
{
    // Means 2 and 8 -> geomean 4, whatever the cases' sample counts.
    std::map<std::string, std::vector<double>> byCase = {
        {"a", {1, 3}},
        {"b", {8, 6, 10, 8}},
    };
    EXPECT_NEAR(geomeanOfMeans(byCase), 4.0, 1e-12);
    EXPECT_DOUBLE_EQ(mean({}), 0.0);
    EXPECT_DOUBLE_EQ(geomean({}), 0.0);
    EXPECT_DOUBLE_EQ(geomean({1.0, 0.0}), 0.0);
}

TEST(Accounting, ClosedLoopBalances)
{
    Accounting a;
    a.attempted = 10;
    a.ok = 7;
    a.failed = 2;
    a.rejected = 1;
    EXPECT_TRUE(a.balanced());
    EXPECT_DOUBLE_EQ(a.failedRatio(), 0.3);
    ++a.attempted;
    EXPECT_FALSE(a.balanced());
    EXPECT_DOUBLE_EQ(Accounting{}.failedRatio(), 0.0);
}

TEST(Transport, RoundTripCoversQueueAndService)
{
    auto t = transportMs(10.0, 3.0, 5.0);
    ASSERT_TRUE(t.has_value());
    EXPECT_DOUBLE_EQ(*t, 2.0);
    // Rounding of the response's 12 significant digits is tolerated.
    auto r = transportMs(8.0, 3.0, 5.0000000000001);
    ASSERT_TRUE(r.has_value());
    EXPECT_GE(*r, 0.0);
    EXPECT_FALSE(transportMs(7.0, 3.0, 5.0).has_value());
}

TEST(Tracer, SelfTimeSubtractsChildren)
{
    Tracer t;
    int op = t.add("op", 0, 100, -1, 0);
    int compile = t.add("compiler.compile", 10, 70, op, 0);
    t.add("compiler.pnr", 20, 60, compile, 0);
    t.add("artifact.pack", 70, 90, op, 0);
    auto self = t.selfUs();
    EXPECT_DOUBLE_EQ(self[op], 20.0);
    EXPECT_DOUBLE_EQ(self[compile], 20.0);
    auto layers = t.selfUsByLayer();
    EXPECT_DOUBLE_EQ(layers["compiler"], 60.0);
    EXPECT_DOUBLE_EQ(layers["artifact"], 20.0);
    EXPECT_DOUBLE_EQ(layers["unattributed"], 20.0);
    EXPECT_DOUBLE_EQ(t.unattributedShare(), 0.2);
}

TEST(Tracer, ScopedSpansNest)
{
    Tracer t;
    {
        Scoped outer(&t, "op", 7);
        Scoped inner(&t, "sim.run", 7);
    }
    ASSERT_EQ(t.spans().size(), 2u);
    EXPECT_EQ(t.spans()[1].parent, 0);
    EXPECT_EQ(t.spans()[1].op, 7);
    EXPECT_LE(t.spans()[1].endUs, t.spans()[0].endUs);
    Scoped off(nullptr, "op", 0); // The untraced run records nothing.
    EXPECT_EQ(off.id(), -1);
}
