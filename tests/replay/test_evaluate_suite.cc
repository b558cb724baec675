/**
 * @file
 * Tests for sim::evaluateSuite: a suite fanned out over a ThreadPool
 * must be bit-identical to the sequential helpers for every worker
 * count (the determinism contract the bench tables print under).
 */

#include <gtest/gtest.h>

#include "core/rare_event.hh"
#include "sim/replay/evaluation.hh"
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
        // A level shift midway forces trims, so the test also proves
        // no change-point state leaks between concurrent predictors.
        const double scale = i < count / 2 ? 4.0 : 6.0;
        job.waitSeconds = rng.logNormal(scale, 1.5);
        job.procs = rng.bernoulli(0.6)
                        ? static_cast<int>(rng.uniformInt(1, 4))
                        : static_cast<int>(rng.uniformInt(5, 16));
        t.add(job);
    }
    return t;
}

bool
identicalCells(const EvaluationCell &a, const EvaluationCell &b)
{
    // Bit-identical, not approximately equal: the parallel engine runs
    // the same arithmetic on the same data in the same order.
    return a.jobs == b.jobs && a.evaluated == b.evaluated &&
           a.correctFraction == b.correctFraction &&
           a.medianRatio == b.medianRatio && a.trims == b.trims;
}

std::vector<EvaluationJob>
makeSuite(const std::shared_ptr<const trace::Trace> &trace,
          const core::PredictorOptions &options)
{
    std::vector<EvaluationJob> jobs;
    for (const char *method :
         {"bmbp", "bmbp-notrim", "lognormal", "lognormal-trim",
          "percentile", "loguniform"}) {
        jobs.push_back({trace, method, options, ReplayConfig{}});
    }
    return jobs;
}

TEST(ParallelEvaluation, SuiteMatchesSequentialAcrossThreadCounts)
{
    const auto trace = std::make_shared<const trace::Trace>(
        syntheticTrace(4000, 11));
    core::RareEventTable table;
    core::PredictorOptions options;
    options.rareEventTable = &table;
    const auto jobs = makeSuite(trace, options);

    std::vector<EvaluationCell> sequential;
    for (const auto &job : jobs) {
        sequential.push_back(evaluateTrace(*job.trace, job.method,
                                           job.options, job.config));
    }

    for (size_t threads : {1, 2, 8}) {
        ThreadPool pool(threads);
        const auto parallel = evaluateSuite(pool, jobs);
        ASSERT_EQ(parallel.size(), sequential.size());
        for (size_t i = 0; i < parallel.size(); ++i) {
            EXPECT_TRUE(identicalCells(parallel[i], sequential[i]))
                << "threads=" << threads << " job=" << jobs[i].method;
        }
    }
}

TEST(ParallelEvaluation, RepeatedRunsAreStable)
{
    // No shared per-predictor state: evaluating the same suite twice
    // on the same pool gives identical cells (a predictor reused or
    // mutated across cells would drift between passes).
    const auto trace = std::make_shared<const trace::Trace>(
        syntheticTrace(3000, 12));
    core::PredictorOptions options;
    const auto jobs = makeSuite(trace, options);

    ThreadPool pool(4);
    const auto first = evaluateSuite(pool, jobs);
    const auto second = evaluateSuite(pool, jobs);
    ASSERT_EQ(first.size(), second.size());
    for (size_t i = 0; i < first.size(); ++i)
        EXPECT_TRUE(identicalCells(first[i], second[i]));
}

} // namespace
} // namespace sim
} // namespace qdel
