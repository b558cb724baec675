/**
 * @file
 * Unit tests for the Trace container.
 */

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <functional>
#include <iterator>
#include <limits>
#include <random>
#include <utility>

#include <gtest/gtest.h>

#include "trace/qtc_stream.hh"
#include "trace/trace.hh"
#include "trace/trace_cache.hh"

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
    // The empty selector is the unnamed queue, which holds no job here.
    EXPECT_EQ(t.filterByQueue("").size(), 0u);
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

bool
scanFinite(const Trace &t)
{
    return std::all_of(t.begin(), t.end(), [](const JobRecord &job) {
        return std::isfinite(job.submitTime);
    });
}

TEST(TraceSorted, FiniteFlagAgreesWithAScan)
{
    std::mt19937 rng(17);
    for (size_t trial = 0; trial < 300; ++trial) {
        SCOPED_TRACE(trial);
        Trace t = randomTrace(rng, trial % 12);
        EXPECT_EQ(t.submitTimesFinite(), scanFinite(t));
        for (const Trace &out :
             {t.filterByQueue("a"), t.filterByProcRange({1, 16}),
              t.filterByTime(1.0, 3.0)}) {
            EXPECT_EQ(out.submitTimesFinite(), scanFinite(out));
        }
        // append(): taken whole by an empty trace, copied otherwise.
        for (bool empty : {true, false}) {
            Trace appended;
            if (!empty)
                appended.add({0.0, 1.0, 1, 1.0, "a"});
            TraceColumns columns;
            for (const JobRecord &job : t) {
                columns.push(job.submitTime, job.waitSeconds,
                             job.runSeconds, job.status, job.procs,
                             appended.internQueue(job.queue));
            }
            appended.append(std::move(columns));
            EXPECT_EQ(appended.submitTimesFinite(), scanFinite(appended));
        }
        t.sortBySubmitTime();
        EXPECT_EQ(t.submitTimesFinite(), scanFinite(t));
    }
}

// ---------------------------------------------------------------------
// The columnar Trace against a std::vector<JobRecord> reference.

/** A trace built by random add()s, and the same jobs as rows. */
struct ColumnCase
{
    Trace trace{"site", "machine"};
    std::vector<JobRecord> rows;
};

/**
 * @p n jobs over five interleaved queues (one unnamed, two with spaces
 * in the name), with repeated and NaN submit times and missing waits.
 */
ColumnCase
randomColumns(std::mt19937 &rng, size_t n)
{
    const double kTimes[] = {5.0, 7.0, 7.0, 9.0, 11.0, 3.0,
                             std::numeric_limits<double>::quiet_NaN()};
    const char *const kQueues[] = {"normal", "", "two words", "x  y z",
                                   "express"};
    std::uniform_int_distribution<size_t> time(0, std::size(kTimes) - 1);
    std::uniform_int_distribution<size_t> queue(0, std::size(kQueues) - 1);
    std::uniform_int_distribution<int> procs(1, 128);
    std::uniform_int_distribution<int> coin(0, 3);
    ColumnCase out;
    for (size_t i = 0; i < n; ++i) {
        JobRecord job;
        // Mostly ascending, so sorted and unsorted traces both occur.
        job.submitTime = coin(rng) == 0 ? kTimes[time(rng)]
                                        : 100.0 + static_cast<double>(i);
        job.waitSeconds = coin(rng) == 0 ? -1.0 : 10.0 * coin(rng);
        job.runSeconds = coin(rng) == 0 ? -1.0 : 60.0 + i;
        job.procs = procs(rng);
        job.status = coin(rng) == 0 ? 5 : 1;
        job.queue = kQueues[queue(rng)];
        out.trace.add(job);
        out.rows.push_back(job);
    }
    return out;
}

bool
submittedBefore(const JobRecord &a, const JobRecord &b)
{
    return a.submitTime < b.submitTime;
}

/** What sortBySubmitTime() does to the rows: std::stable_sort, skipped
 *  when they already pass std::is_sorted (with NaN submit times that
 *  skip is not an identity). */
void
sortRows(std::vector<JobRecord> &rows)
{
    if (!std::is_sorted(rows.begin(), rows.end(), submittedBefore))
        std::stable_sort(rows.begin(), rows.end(), submittedBefore);
}

/** Bitwise, so NaN equals NaN. */
bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof(double)) == 0;
}

void
expectRowsEqual(const JobRecord &actual, const JobRecord &expected)
{
    EXPECT_TRUE(sameBits(actual.submitTime, expected.submitTime));
    EXPECT_TRUE(sameBits(actual.waitSeconds, expected.waitSeconds));
    EXPECT_TRUE(sameBits(actual.runSeconds, expected.runSeconds));
    EXPECT_EQ(actual.procs, expected.procs);
    EXPECT_EQ(actual.status, expected.status);
    EXPECT_EQ(actual.queue, expected.queue);
}

/** Index and iteration both give @p rows, in order. */
void
expectTraceMatches(const Trace &t, const std::vector<JobRecord> &rows)
{
    ASSERT_EQ(t.size(), rows.size());
    EXPECT_EQ(t.empty(), rows.empty());
    for (size_t i = 0; i < rows.size(); ++i) {
        SCOPED_TRACE(i);
        expectRowsEqual(t[i], rows[i]);
    }
    const std::vector<JobRecord> iterated(t.begin(), t.end());
    ASSERT_EQ(iterated.size(), rows.size());
    size_t i = 0;
    for (const JobRecord &job : t)
        expectRowsEqual(job, rows[i++]);
    EXPECT_EQ(t.isSorted(),
              std::is_sorted(rows.begin(), rows.end(), submittedBefore));
}

std::vector<JobRecord>
keepRows(const std::vector<JobRecord> &rows,
         const std::function<bool(const JobRecord &)> &keep)
{
    std::vector<JobRecord> out;
    std::copy_if(rows.begin(), rows.end(), std::back_inserter(out), keep);
    return out;
}

/** Every column equal element by element, queue ids compared through
 *  each trace's own name table. */
void
expectSameColumns(const Trace &actual, const Trace &expected)
{
    const TraceColumns &a = actual.columns();
    const TraceColumns &b = expected.columns();
    ASSERT_EQ(a.size(), b.size());
    ASSERT_EQ(a.wait.size(), b.size());
    ASSERT_EQ(a.run.size(), b.size());
    ASSERT_EQ(a.status.size(), b.size());
    ASSERT_EQ(a.procs.size(), b.size());
    ASSERT_EQ(a.queueId.size(), b.size());
    for (size_t i = 0; i < b.size(); ++i) {
        SCOPED_TRACE(i);
        EXPECT_TRUE(sameBits(a.submit[i], b.submit[i]));
        EXPECT_TRUE(sameBits(a.wait[i], b.wait[i]));
        EXPECT_TRUE(sameBits(a.run[i], b.run[i]));
        EXPECT_EQ(a.status[i], b.status[i]);
        EXPECT_EQ(a.procs[i], b.procs[i]);
        EXPECT_EQ(actual.queueTable()[a.queueId[i]],
                  expected.queueTable()[b.queueId[i]]);
    }
    EXPECT_EQ(actual.queueNames(), expected.queueNames());
    EXPECT_EQ(actual.isSorted(), expected.isSorted());
}

TEST(TraceColumns, RowsMatchTheReference)
{
    std::mt19937 rng(17);
    for (size_t trial = 0; trial < 200; ++trial) {
        SCOPED_TRACE(trial);
        const ColumnCase c = randomColumns(rng, trial % 40);
        expectTraceMatches(c.trace, c.rows);
        EXPECT_EQ(c.trace.site(), "site");
        EXPECT_EQ(c.trace.machine(), "machine");
    }
}

TEST(TraceColumns, StableSortMatchesTheReference)
{
    std::mt19937 rng(19);
    for (size_t trial = 0; trial < 200; ++trial) {
        SCOPED_TRACE(trial);
        ColumnCase c = randomColumns(rng, trial % 40);
        c.trace.sortBySubmitTime();
        sortRows(c.rows);
        expectTraceMatches(c.trace, c.rows);
    }
}

TEST(TraceColumns, WaitsNamesAndSummaryMatchTheReference)
{
    std::mt19937 rng(23);
    for (size_t trial = 0; trial < 200; ++trial) {
        SCOPED_TRACE(trial);
        ColumnCase c = randomColumns(rng, trial % 40);
        if (trial % 2 == 1) {
            c.trace.sortBySubmitTime();
            sortRows(c.rows);
        }
        std::vector<double> waits;
        std::vector<std::string> names;
        for (const JobRecord &job : c.rows) {
            waits.push_back(job.waitSeconds);
            if (std::find(names.begin(), names.end(), job.queue) ==
                names.end())
                names.push_back(job.queue);
        }
        EXPECT_EQ(c.trace.waitTimes(), waits);
        EXPECT_EQ(c.trace.queueNames(), names);
        const stats::SummaryStats expected = stats::summarize(waits);
        const stats::SummaryStats actual = c.trace.summary();
        EXPECT_EQ(actual.count, expected.count);
        EXPECT_TRUE(sameBits(actual.median, expected.median));
        EXPECT_TRUE(sameBits(actual.mean, expected.mean));
        EXPECT_TRUE(sameBits(actual.stddev, expected.stddev));
        EXPECT_TRUE(sameBits(actual.min, expected.min));
        EXPECT_TRUE(sameBits(actual.max, expected.max));
    }
}

TEST(TraceColumns, FiltersMatchTheReference)
{
    std::mt19937 rng(29);
    for (size_t trial = 0; trial < 200; ++trial) {
        SCOPED_TRACE(trial);
        const ColumnCase c = randomColumns(rng, trial % 40);
        for (const std::string queue :
             {"normal", "", "two words", "x  y z", "absent"}) {
            SCOPED_TRACE(queue);
            const Trace out = c.trace.filterByQueue(queue);
            expectTraceMatches(
                out, keepRows(c.rows, [&](const JobRecord &job) {
                    return job.queue == queue;
                }));
            EXPECT_EQ(out.site(), "site");
            EXPECT_EQ(out.machine(), "machine");
        }
        for (const ProcRange range :
             {ProcRange{1, 4}, ProcRange{5, 64}, ProcRange{65, -1}}) {
            SCOPED_TRACE(range.label());
            const Trace out = c.trace.filterByProcRange(range);
            const auto rows = keepRows(c.rows, [&](const JobRecord &job) {
                return range.contains(job.procs);
            });
            expectTraceMatches(out, rows);
            std::vector<std::string> names;
            for (const JobRecord &job : rows) {
                if (std::find(names.begin(), names.end(), job.queue) ==
                    names.end())
                    names.push_back(job.queue);
            }
            EXPECT_EQ(out.queueNames(), names);
        }
        const Trace out = c.trace.filterByTime(7.0, 110.0);
        expectTraceMatches(out, keepRows(c.rows, [](const JobRecord &job) {
                               return job.submitTime >= 7.0 &&
                                      job.submitTime < 110.0;
                           }));
    }
}

TEST(TraceColumns, QtcRoundTripAndMaterializeKeepTheColumns)
{
    std::mt19937 rng(31);
    const std::string dir =
        ::testing::TempDir() + "qdel_trace_columns_round_trip";
    for (size_t trial = 0; trial < 12; ++trial) {
        SCOPED_TRACE(trial);
        ColumnCase c = randomColumns(rng, 50 * trial);
        if (trial % 3 == 1)
            c.trace.sortBySubmitTime();
        // A filter's output keeps its input's name table, unused names
        // included; the writers must number only the names in use.
        const Trace t = trial % 3 == 2
                            ? c.trace.filterByProcRange({1, 64})
                            : c.trace;
        std::filesystem::remove_all(dir);
        std::filesystem::create_directories(dir);

        // A cache holds sorted, finite submit times only: other columns
        // read back as corrupt, and their sorted finite rows round-trip.
        const std::string cache = dir + "/trace.qtc";
        IngestReport report;
        report.source = "columns";
        Trace clean = t.filterByTime(-std::numeric_limits<double>::infinity(),
                                     std::numeric_limits<double>::infinity());
        clean.sortBySubmitTime();
        for (const Trace *written : {&t, &std::as_const(clean)}) {
            ASSERT_TRUE(
                writeTraceCache(cache, *written, report, 0, FileStamp{})
                    .ok());
            const CacheReadResult loaded =
                readTraceCache(cache, 0, FileStamp{});
            if (!written->isSorted() || !written->submitTimesFinite()) {
                EXPECT_EQ(loaded.status, CacheStatus::Corrupt);
                continue;
            }
            ASSERT_EQ(loaded.status, CacheStatus::Hit) << loaded.detail;
            expectSameColumns(loaded.trace, *written);
            EXPECT_EQ(loaded.trace.queueTable(), written->queueNames());
        }

        ShardWriterOptions options;
        options.directory = dir;
        options.shardSize = 37;
        options.site = t.site();
        options.machine = t.machine();
        ShardedTraceWriter writer(options);
        for (const JobRecord &job : t)
            writer.add(job);
        ASSERT_TRUE(writer.finish().ok());
        auto reader = StreamingTraceReader::open(writer.manifestPath());
        ASSERT_TRUE(reader.ok()) << reader.error().str();
        auto materialized = reader.value().materialize();
        ASSERT_TRUE(materialized.ok()) << materialized.error().str();
        expectSameColumns(materialized.value(), t);
    }
    std::filesystem::remove_all(dir);
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
