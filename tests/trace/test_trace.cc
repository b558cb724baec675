/**
 * @file
 * Unit tests for the Trace container.
 */

#include <algorithm>
#include <iterator>
#include <limits>
#include <random>

#include <gtest/gtest.h>

#include "trace/trace.hh"

namespace qdel {
namespace trace {
namespace {

Trace
makeTrace()
{
    Trace t("sdsc", "datastar");
    JobRecord a{100.0, 50.0, 2, 600.0, "normal"};
    JobRecord b{200.0, 10.0, 32, 300.0, "normal"};
    JobRecord c{150.0, 0.0, 8, 60.0, "express"};
    t.add(a);
    t.add(b);
    t.add(c);
    t.sortBySubmitTime();
    return t;
}

TEST(Trace, SortAndAccess)
{
    auto t = makeTrace();
    ASSERT_EQ(t.size(), 3u);
    EXPECT_TRUE(t.isSorted());
    EXPECT_DOUBLE_EQ(t[0].submitTime, 100.0);
    EXPECT_DOUBLE_EQ(t[1].submitTime, 150.0);
    EXPECT_EQ(t.site(), "sdsc");
    EXPECT_EQ(t.machine(), "datastar");
}

TEST(Trace, JobRecordDerivedTimes)
{
    JobRecord job{100.0, 50.0, 2, 600.0, "q"};
    EXPECT_DOUBLE_EQ(job.startTime(), 150.0);
    EXPECT_DOUBLE_EQ(job.endTime(), 750.0);
}

TEST(Trace, WaitTimesInSubmissionOrder)
{
    auto waits = makeTrace().waitTimes();
    ASSERT_EQ(waits.size(), 3u);
    EXPECT_DOUBLE_EQ(waits[0], 50.0);
    EXPECT_DOUBLE_EQ(waits[1], 0.0);
    EXPECT_DOUBLE_EQ(waits[2], 10.0);
}

TEST(Trace, QueueNamesFirstAppearance)
{
    auto names = makeTrace().queueNames();
    ASSERT_EQ(names.size(), 2u);
    EXPECT_EQ(names[0], "normal");
    EXPECT_EQ(names[1], "express");
}

TEST(Trace, FilterByQueue)
{
    auto t = makeTrace();
    EXPECT_EQ(t.filterByQueue("normal").size(), 2u);
    EXPECT_EQ(t.filterByQueue("express").size(), 1u);
    EXPECT_EQ(t.filterByQueue("absent").size(), 0u);
    // Empty selector keeps everything.
    EXPECT_EQ(t.filterByQueue("").size(), 3u);
}

TEST(Trace, FilterByProcRange)
{
    auto t = makeTrace();
    EXPECT_EQ(t.filterByProcRange({1, 4}).size(), 1u);
    EXPECT_EQ(t.filterByProcRange({5, 16}).size(), 1u);
    EXPECT_EQ(t.filterByProcRange({17, 64}).size(), 1u);
    EXPECT_EQ(t.filterByProcRange({65, -1}).size(), 0u);
}

TEST(Trace, FilterByTimeHalfOpen)
{
    auto t = makeTrace();
    EXPECT_EQ(t.filterByTime(100.0, 200.0).size(), 2u);
    EXPECT_EQ(t.filterByTime(0.0, 100.0).size(), 0u);
    EXPECT_EQ(t.filterByTime(200.0, 1e9).size(), 1u);
}

TEST(Trace, Summary)
{
    auto s = makeTrace().summary();
    EXPECT_EQ(s.count, 3u);
    EXPECT_DOUBLE_EQ(s.median, 10.0);
    EXPECT_NEAR(s.mean, 20.0, 1e-12);
}

bool
scanSorted(const Trace &t)
{
    return std::is_sorted(t.begin(), t.end(),
                          [](const JobRecord &a, const JobRecord &b) {
                              return a.submitTime < b.submitTime;
                          });
}

/** A trace of @p n jobs whose submit times repeat and include NaN. */
Trace
randomTrace(std::mt19937 &rng, size_t n)
{
    const double kTimes[] = {0.0, 1.0, 1.0, 2.0, 3.0,
                             std::numeric_limits<double>::quiet_NaN()};
    std::uniform_int_distribution<size_t> pick(0, std::size(kTimes) - 1);
    std::uniform_int_distribution<int> procs(1, 64);
    Trace t;
    for (size_t i = 0; i < n; ++i) {
        const double submit = kTimes[pick(rng)];
        t.add({submit, 1.0, procs(rng), 1.0, pick(rng) % 2 ? "a" : "b"});
        EXPECT_EQ(t.isSorted(), scanSorted(t)) << "after add " << i;
    }
    return t;
}

TEST(TraceSorted, TracksAddOrderWithTiesAndNaN)
{
    std::mt19937 rng(7);
    for (size_t trial = 0; trial < 500; ++trial) {
        SCOPED_TRACE(trial);
        // randomTrace compares isSorted() with a scan after each add.
        randomTrace(rng, trial % 12);
    }
}

TEST(TraceSorted, FilterOutputsAgreeWithAScan)
{
    std::mt19937 rng(11);
    for (size_t trial = 0; trial < 300; ++trial) {
        SCOPED_TRACE(trial);
        const Trace t = randomTrace(rng, trial % 12);
        for (const Trace &out :
             {t.filterByQueue("a"), t.filterByQueue(""),
              t.filterByProcRange({1, 16}), t.filterByProcRange({17, -1}),
              t.filterByTime(1.0, 3.0), t.filterByTime(0.0, 1e9)}) {
            EXPECT_EQ(out.isSorted(), scanSorted(out));
        }
    }
}

TEST(TraceSorted, SortBySubmitTimeAgreesWithAScan)
{
    std::mt19937 rng(13);
    for (size_t trial = 0; trial < 300; ++trial) {
        SCOPED_TRACE(trial);
        Trace t = randomTrace(rng, trial % 12);
        t.sortBySubmitTime();
        EXPECT_EQ(t.isSorted(), scanSorted(t));
        t.add({-1.0, 1.0, 1, 1.0, "a"});
        EXPECT_EQ(t.isSorted(), scanSorted(t));
    }
    // Without NaN the sort always leaves the trace sorted.
    Trace t;
    for (double submit : {3.0, 1.0, 2.0, 1.0})
        t.add({submit, 1.0, 1, 1.0, "a"});
    EXPECT_FALSE(t.isSorted());
    t.sortBySubmitTime();
    EXPECT_TRUE(t.isSorted());
    EXPECT_TRUE(scanSorted(t));
}

TEST(ProcRange, ContainsAndLabel)
{
    ProcRange small{1, 4};
    EXPECT_TRUE(small.contains(1));
    EXPECT_TRUE(small.contains(4));
    EXPECT_FALSE(small.contains(5));
    EXPECT_EQ(small.label(), "1-4");

    ProcRange open{65, -1};
    EXPECT_TRUE(open.contains(100000));
    EXPECT_FALSE(open.contains(64));
    EXPECT_EQ(open.label(), "65+");
}

TEST(ProcRange, PaperBins)
{
    ASSERT_EQ(paperProcRangeCount(), 4);
    const ProcRange *bins = paperProcRanges();
    EXPECT_EQ(bins[0].label(), "1-4");
    EXPECT_EQ(bins[1].label(), "5-16");
    EXPECT_EQ(bins[2].label(), "17-64");
    EXPECT_EQ(bins[3].label(), "65+");
    // The bins partition [1, inf).
    for (int procs : {1, 4, 5, 16, 17, 64, 65, 4096}) {
        int holders = 0;
        for (int b = 0; b < 4; ++b)
            holders += bins[b].contains(procs);
        EXPECT_EQ(holders, 1) << "procs=" << procs;
    }
}

} // namespace
} // namespace trace
} // namespace qdel
