/**
 * @file
 * Tests for the one-call experiment helpers (table-cell computation)
 * and for the per-processor-range subdivision a keyed sweep gives the
 * paper's Tables 5-7 (sim::procRow()).
 */

#include <gtest/gtest.h>

#include "sim/replay/evaluation.hh"
#include "sim/replay/stream_replay.hh"
#include "stats/rng.hh"

namespace qdel {
namespace sim {
namespace {

trace::Trace
syntheticTrace(size_t count, uint64_t seed)
{
    stats::Rng rng(seed);
    trace::Trace t;
    for (size_t i = 0; i < count; ++i) {
        trace::JobRecord job;
        job.submitTime = 1000.0 + static_cast<double>(i) * 120.0;
        job.waitSeconds = rng.logNormal(4.0, 1.5);
        // Populate the 1-4 and 5-16 bins only.
        job.procs = rng.bernoulli(0.6)
                        ? static_cast<int>(rng.uniformInt(1, 4))
                        : static_cast<int>(rng.uniformInt(5, 16));
        t.add(job);
    }
    return t;
}

/** @p t's bmbp sweep keyed by (queue, processor range). */
StreamReplayResult
sweepByProcs(const trace::Trace &t)
{
    StreamReplayConfig config;
    config.byProcs = true;
    return replayStream(t, "bmbp", {}, config).value();
}

TEST(Evaluation, BmbpCellOnStationaryData)
{
    auto t = syntheticTrace(5000, 1);
    core::PredictorOptions options;
    auto cell = evaluateTrace(t, "bmbp", options);
    EXPECT_EQ(cell.jobs, 5000u);
    EXPECT_EQ(cell.evaluated, 4500u);  // 10% training
    EXPECT_GE(cell.correctFraction, 0.94);
    EXPECT_GT(cell.medianRatio, 0.0);
    EXPECT_LT(cell.medianRatio, 1.0);
}

TEST(Evaluation, CorrectnessCriterionRoundsLikeThePaper)
{
    EvaluationCell cell;
    cell.correctFraction = 0.9451;  // prints as 0.95 -> correct
    EXPECT_TRUE(cell.correct(0.95));
    cell.correctFraction = 0.9449;  // prints as 0.94 -> incorrect
    EXPECT_FALSE(cell.correct(0.95));
    cell.correctFraction = 0.96;
    EXPECT_TRUE(cell.correct(0.95));
}

TEST(Evaluation, ByProcRangeSubdivides)
{
    auto t = syntheticTrace(8000, 2);
    const StreamReplayResult sweep = sweepByProcs(t);
    // Bins 1-4 and 5-16 are populated; 17-64 and 65+ hold no jobs.
    ASSERT_EQ(sweep.queues.size(), 2u);
    EXPECT_EQ(sweep.queues[0].bucket, 0);
    EXPECT_EQ(sweep.queues[1].bucket, 1);
    EXPECT_GT(sweep.queues[0].result.totalJobs, 1000u);
    EXPECT_GT(sweep.queues[1].result.totalJobs, 1000u);
    EXPECT_EQ(sweep.totalJobs, 8000u);
    const std::vector<const ReplayResult *> row = procRow(sweep, "", 1000);
    ASSERT_EQ(row.size(), 4u);
    ASSERT_NE(row[0], nullptr);
    ASSERT_NE(row[1], nullptr);
    EXPECT_GT(row[0]->evaluatedJobs, 0u);
    EXPECT_EQ(row[2], nullptr);  // "-" in the paper's tables
    EXPECT_EQ(row[3], nullptr);
    EXPECT_GE(row[0]->correctFraction, 0.94);
    EXPECT_GE(row[1]->correctFraction, 0.94);
}

TEST(Evaluation, MinJobsThresholdDropsSparseCells)
{
    auto t = syntheticTrace(1500, 3);
    const StreamReplayResult sweep = sweepByProcs(t);
    ASSERT_EQ(sweep.queues.size(), 2u);
    EXPECT_GT(sweep.queues[0].result.totalJobs, 0u);
    EXPECT_GT(sweep.queues[1].result.totalJobs, 0u);
    // With the paper's 1000-job floor, the 5-16 bin (~40% of 1500)
    // falls below threshold and is skipped.
    EXPECT_EQ(procRow(sweep, "", 1000)[1], nullptr);

    // Lowering the floor shows it.
    const ReplayResult *loose = procRow(sweep, "", 100)[1];
    ASSERT_NE(loose, nullptr);
    EXPECT_GT(loose->evaluatedJobs, 0u);
}

TEST(Evaluation, TrimCountSurfacedForTrimmingMethods)
{
    // A trace with a violent level shift forces at least one trim.
    stats::Rng rng(4);
    trace::Trace t;
    for (size_t i = 0; i < 4000; ++i) {
        trace::JobRecord job;
        job.submitTime = 1000.0 + static_cast<double>(i) * 120.0;
        const double scale = i < 2000 ? 2.0 : 8.0;
        job.waitSeconds = rng.logNormal(scale, 0.5);
        t.add(job);
    }
    core::PredictorOptions options;
    auto bmbp = evaluateTrace(t, "bmbp", options);
    EXPECT_GE(bmbp.trims, 1u);
    auto trim = evaluateTrace(t, "lognormal-trim", options);
    EXPECT_GE(trim.trims, 1u);
    auto notrim = evaluateTrace(t, "lognormal", options);
    EXPECT_EQ(notrim.trims, 0u);
}

} // namespace
} // namespace sim
} // namespace qdel
