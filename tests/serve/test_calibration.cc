/**
 * @file
 * Online calibration contract tests.
 *
 * The load-bearing one drives a replayed event stream through the
 * registry while an in-test oracle applies the offline scoring rule
 * (freeze the published bound at submit, judge it at start, count
 * infinite bounds as covering, score only post-training jobs) — the
 * live report must agree exactly, and its empirical coverage must sit
 * within binomial tolerance of the requested confidence. A deliberately
 * mis-specified predictor (the raw 0.5-percentile claiming C = 0.95)
 * must trip the binomial failing flag, and so must a regime shift the
 * bound cannot follow. The offline-equals-online test feeds a trace's
 * event stream through BoundService and requires every queue's served
 * calibration row — the counts, the window and its verdict — to equal
 * ReplaySimulator's on that queue bit for bit, for each method and for
 * whole-second, fractional and equal-instant traces.
 */

#include <algorithm>
#include <cmath>
#include <limits>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "core/predictor_factory.hh"
#include "obs/calibration.hh"
#include "persist/state_codec.hh"
#include "serve/bound_registry.hh"
#include "serve/service.hh"
#include "sim/replay/evaluation.hh"
#include "sim/replay/replay_simulator.hh"

namespace qdel {
namespace serve {
namespace {

/** Deterministic lognormal wait series. */
std::vector<double>
syntheticWaits(size_t n, uint32_t seed)
{
    std::mt19937 rng(seed);
    std::lognormal_distribution<double> dist(5.0, 1.5);
    std::vector<double> waits;
    waits.reserve(n);
    for (size_t i = 0; i < n; ++i)
        waits.push_back(dist(rng));
    return waits;
}

JobEvent
makeEvent(EventKind kind, uint64_t job, double time)
{
    JobEvent event;
    event.kind = kind;
    event.jobId = job;
    event.time = time;
    event.machine = "m";
    event.queue = "q";
    event.procs = 4;
    return event;
}

TEST(CalibrationMath, AssessOnlyFlagsWithEvidence)
{
    // No outcomes: no coverage, and the p-value of no evidence.
    const auto empty = obs::assessCalibration(0, 0, 0.95);
    EXPECT_EQ(empty.coverage, -1.0);
    EXPECT_EQ(empty.pValue, 1.0);
    EXPECT_FALSE(empty.failing);
    // Below the sample floor nothing fails, however bad the coverage.
    EXPECT_FALSE(obs::assessCalibration(0, 49, 0.95).failing);
    // A perfectly calibrated window is clean.
    EXPECT_FALSE(obs::assessCalibration(95, 100, 0.95).failing);
    // Half coverage claiming 0.95 over 100 samples is overwhelming
    // evidence of miscalibration.
    const auto verdict = obs::assessCalibration(50, 100, 0.95);
    EXPECT_TRUE(verdict.failing);
    EXPECT_LT(verdict.pValue, 1e-3);
    EXPECT_NEAR(verdict.coverage, 0.5, 1e-12);
    EXPECT_NEAR(verdict.drift, -0.45, 1e-12);
}

TEST(Calibration, LiveReportMatchesTheOfflineScoringOracle)
{
    BoundRegistry::Options options;
    options.shards = 2;
    options.method = "bmbp";
    options.quantile = 0.95;
    options.confidence = 0.95;
    options.epochSeconds = 10.0;
    options.trainJobs = 20;
    ASSERT_TRUE(options.validate().ok());
    BoundRegistry registry(options);

    const auto waits = syntheticWaits(400, 7);
    BoundQuery probe;
    probe.machine = "m";
    probe.queue = "q";
    probe.procs = 4;
    probe.quantile = options.quantile;

    uint64_t oracle_scored = 0, oracle_hits = 0, oracle_infinite = 0;
    double t = 0.0;
    for (size_t i = 0; i < waits.size(); ++i) {
        t += 1.0;
        ASSERT_TRUE(
            registry.apply(makeEvent(EventKind::Submit, i + 1, t))
                .applied);
        // The oracle freezes the published bound the instant the
        // submit is processed — exactly what a live client querying at
        // submit time would have been told.
        const BoundAnswer at_submit = registry.query(probe);
        const bool scoreable = i >= options.trainJobs;
        const double frozen = at_submit.upper;

        ASSERT_TRUE(registry
                        .apply(makeEvent(EventKind::Start, i + 1,
                                         t + waits[i]))
                        .applied);
        if (!scoreable)
            continue;
        ++oracle_scored;
        if (!std::isfinite(frozen)) {
            ++oracle_infinite;
            ++oracle_hits;  // Offline rule: no usable bound == covered.
        } else if (frozen >= waits[i]) {
            ++oracle_hits;
        }
    }

    const auto report = registry.calibrationReport();
    ASSERT_EQ(report.rows.size(), 1u);
    const auto &row = report.rows[0];
    EXPECT_EQ(row.machine, "m");
    EXPECT_EQ(row.queue, "q");
    EXPECT_TRUE(row.finalized);
    EXPECT_EQ(row.scored, oracle_scored);
    EXPECT_EQ(row.hits, oracle_hits);
    EXPECT_EQ(row.infinite, oracle_infinite);
    ASSERT_GT(row.scored, 100u) << "trace too short to say anything";

    // Empirical coverage within binomial tolerance of the requested
    // confidence: 4 sigma of Bin(n, C) leaves ~6e-5 flake probability,
    // and the deterministic seed pins it in practice.
    const double n = static_cast<double>(row.scored);
    const double tolerance =
        4.0 * std::sqrt(0.95 * 0.05 / n) + 1.0 / n;
    EXPECT_GE(row.lifetimeCoverage, 0.95 - tolerance);
    EXPECT_FALSE(row.failing);
    EXPECT_EQ(report.failingEntries, 0u);
    EXPECT_EQ(report.scoredEntries, 1u);
}

TEST(Calibration, MisSpecifiedPredictorTripsTheFailingFlag)
{
    // The raw 0.5-percentile covers ~half of waits; claiming C = 0.95
    // for it is exactly the miscalibration the binomial test exists to
    // catch.
    BoundRegistry::Options options;
    options.shards = 1;
    options.method = "percentile";
    options.quantile = 0.5;
    options.confidence = 0.95;
    options.epochSeconds = 10.0;
    options.trainJobs = 20;
    ASSERT_TRUE(options.validate().ok());
    BoundRegistry registry(options);

    const auto waits = syntheticWaits(400, 11);
    double t = 0.0;
    for (size_t i = 0; i < waits.size(); ++i) {
        t += 1.0;
        ASSERT_TRUE(
            registry.apply(makeEvent(EventKind::Submit, i + 1, t))
                .applied);
        ASSERT_TRUE(registry
                        .apply(makeEvent(EventKind::Start, i + 1,
                                         t + waits[i]))
                        .applied);
    }

    const auto report = registry.calibrationReport();
    ASSERT_EQ(report.rows.size(), 1u);
    const auto &row = report.rows[0];
    ASSERT_GE(row.windowCount, 50u);
    EXPECT_LT(row.windowCoverage, 0.75);
    EXPECT_TRUE(row.failing);
    EXPECT_LT(row.pValue, 1e-3);
    EXPECT_EQ(report.failingEntries, 1u);
    EXPECT_GT(report.maxUndercoverage, 0.1);
}

TEST(Calibration, ShardStateV3RoundTripsCalibrationAndPendingBounds)
{
    BoundRegistry::Options options;
    options.shards = 1;
    options.method = "bmbp";
    options.epochSeconds = 10.0;
    options.trainJobs = 20;
    ASSERT_TRUE(options.validate().ok());

    BoundRegistry registry(options);
    const auto waits = syntheticWaits(120, 3);
    double t = 0.0;
    uint64_t job = 0;
    for (double wait : waits) {
        t += 1.0;
        ++job;
        ASSERT_TRUE(
            registry.apply(makeEvent(EventKind::Submit, job, t)).applied);
        ASSERT_TRUE(
            registry.apply(makeEvent(EventKind::Start, job, t + wait))
                .applied);
    }
    // Leave one job pending so the frozen bound-at-submit itself must
    // survive the round trip (it is scored only after restore).
    ASSERT_TRUE(
        registry.apply(makeEvent(EventKind::Submit, ++job, t + 1.0))
            .applied);

    persist::StateWriter writer;
    {
        auto lock = registry.lockShard(0);
        ASSERT_TRUE(registry.saveShard(0, writer).ok());
    }
    const std::string payload = writer.take();

    BoundRegistry restored(options);
    {
        auto lock = restored.lockShard(0);
        persist::StateReader reader(payload, "test-shard");
        ASSERT_TRUE(restored.loadShard(0, reader).ok());
        ASSERT_TRUE(reader.expectEnd().ok());
    }
    EXPECT_EQ(registry.digest(), restored.digest());

    const auto before = registry.calibrationReport();
    const auto after = restored.calibrationReport();
    ASSERT_EQ(before.rows.size(), after.rows.size());
    EXPECT_EQ(before.rows[0].scored, after.rows[0].scored);
    EXPECT_EQ(before.rows[0].hits, after.rows[0].hits);
    EXPECT_EQ(before.rows[0].infinite, after.rows[0].infinite);
    EXPECT_EQ(before.rows[0].windowCount, after.rows[0].windowCount);
    EXPECT_EQ(before.rows[0].windowHits, after.rows[0].windowHits);

    // Starting the pending job after restore scores it against the
    // persisted frozen bound — both instances must agree bit-exactly.
    const JobEvent start = makeEvent(EventKind::Start, job, t + 50.0);
    ASSERT_TRUE(registry.apply(start).applied);
    ASSERT_TRUE(restored.apply(start).applied);
    EXPECT_EQ(registry.digest(), restored.digest());
    EXPECT_EQ(registry.calibrationReport().rows[0].scored,
              restored.calibrationReport().rows[0].scored);
}

TEST(Calibration, ShardInfoCountsPendingAndApplied)
{
    BoundRegistry::Options options;
    options.shards = 1;
    ASSERT_TRUE(options.validate().ok());
    BoundRegistry registry(options);

    ASSERT_TRUE(
        registry.apply(makeEvent(EventKind::Submit, 1, 1.0)).applied);
    ASSERT_TRUE(
        registry.apply(makeEvent(EventKind::Submit, 2, 2.0)).applied);
    ASSERT_TRUE(
        registry.apply(makeEvent(EventKind::Start, 1, 3.0)).applied);

    const auto info = registry.shardInfo(0);
    EXPECT_EQ(info.entries, 1u);
    EXPECT_EQ(info.pending, 1u);
    EXPECT_EQ(info.applied, 3u);
    EXPECT_EQ(info.rejected, 0u);
}

/** The trace shapes the offline/online parity test runs on. */
enum class ParityShape
{
    WholeSeconds,  //!< SWF-like: every time a whole second.
    Fractional,    //!< Fractional submits and waits.
    EqualInstant,  //!< Batches of Starts at one instant.
};

/**
 * Three queues in the shape of the stream-parity fixture: interleaved,
 * each with its own wait regime, one shifting regime mid-trace (which
 * provokes change-point trims), zero-wait jobs (a release tied with its
 * own submit) and duplicate submit times. Every third job of a queue is
 * released exactly on one of its queue's 300 s epoch ticks, where a
 * release must be observed before the tick's refit; each queue's jobs
 * share one proc bucket. @p shape Fractional offsets every submit and
 * wait by a fraction of a second, so a wait recovered as start - submit
 * differs from the trace's in the last bit; EqualInstant also starts
 * most jobs on a 900 s grid, so dozens of jobs of different waits
 * release at one instant.
 */
std::vector<trace::JobRecord>
parityJobs(size_t per_queue, ParityShape shape)
{
    const char *const queues[] = {"batch", "debug", "long"};
    const int procs[] = {2, 16, 128};
    double first_submit[3] = {};
    std::vector<trace::JobRecord> jobs;
    double submit = 10'000.0;
    for (size_t i = 0; i < 3 * per_queue; ++i) {
        submit += static_cast<double>(i % 7) * 7.0;  // dup when i%7==0
        if (shape == ParityShape::Fractional && i % 7 != 0)
            submit += static_cast<double>(i % 10) / 3.0;
        const size_t q = i % 3;
        if (i < 3)
            first_submit[q] = submit;
        double wait;
        if (q == 0) {
            wait = (i < (3 * per_queue) / 2 ? 50.0 : 9'000.0) +
                   static_cast<double>((i * 37) % 113);
        } else if (q == 1) {
            // Heavy-tailed: wide gaps between the upper order statistics.
            wait = std::round(30.0 * std::pow(1.4, (i * 131) % 23));
        } else {
            wait = 600.0 + static_cast<double>((i * 53) % 2'999);
        }
        if (shape == ParityShape::Fractional && q != 1)
            wait += static_cast<double>((i * 29) % 97) / 7.0;
        if (i % 9 < 3) {
            // Snap the release onto the queue's next epoch tick.
            const double ticks =
                std::ceil((submit + wait - first_submit[q]) / 300.0);
            wait = first_submit[q] + 300.0 * ticks - submit;
        } else if (shape == ParityShape::EqualInstant) {
            // Start with the batch the scheduler launches next.
            wait = 1800.0 * std::ceil((submit + wait) / 1800.0) - submit;
        }
        if (i % 17 == 0)
            wait = 0.0;  // released at its submit instant
        trace::JobRecord job;
        job.submitTime = submit;
        job.waitSeconds = wait;
        job.procs = procs[q];
        job.runSeconds = 60.0;
        job.queue = queues[q];
        jobs.push_back(job);
    }
    return jobs;
}

/** (method, trace shape) of one offline/online parity case. */
using ParityCase = std::tuple<std::string, ParityShape>;

class CalibrationParity : public ::testing::TestWithParam<ParityCase>
{
};

TEST_P(CalibrationParity, ServedCountsEqualOfflineReplayPerQueue)
{
    const auto [method, shape] = GetParam();
    const size_t per_queue = 1500;
    const auto jobs = parityJobs(per_queue, shape);

    ServiceConfig config;
    config.registry.shards = 4;
    config.registry.method = method;
    config.registry.epochSeconds = 300.0;
    // The offline training prefix, floor(0.1 x queue total).
    config.registry.trainJobs = per_queue / 10;
    auto opened = BoundService::open(config);
    ASSERT_TRUE(opened.ok()) << opened.error().str();
    BoundService &service = *opened.value();
    for (const JobEvent &event : eventsFromJobs(jobs, "parity")) {
        auto outcome = service.ingest(event);
        ASSERT_TRUE(outcome.ok());
        ASSERT_TRUE(outcome.value().applied);
    }

    const auto report = service.registry().calibrationReport();
    ASSERT_EQ(report.rows.size(), 3u);
    size_t trims = 0;
    for (const auto &row : report.rows) {
        trace::Trace queue_trace;
        for (const auto &job : jobs) {
            if (job.queue == row.queue)
                queue_trace.add(job);
        }
        auto predictor = core::makePredictor(method, {});
        sim::ReplaySimulator simulator({300.0, 0.10});
        const auto offline = simulator.run(queue_trace, *predictor);
        ASSERT_TRUE(offline.ok());
        trims += sim::predictorTrimCount(*predictor);

        EXPECT_EQ(offline.value().trainingJobs, config.registry.trainJobs);
        EXPECT_TRUE(row.finalized) << row.queue;
        EXPECT_EQ(row.scored, offline.value().evaluatedJobs) << row.queue;
        EXPECT_EQ(row.hits, offline.value().correct) << row.queue;
        EXPECT_EQ(row.infinite, offline.value().infinitePredictions)
            << row.queue;
        // The window and its verdict, bit for bit: one record, kept
        // in release order on both paths.
        EXPECT_EQ(row.windowCount, offline.value().windowCount)
            << row.queue;
        EXPECT_EQ(row.windowHits, offline.value().windowHits) << row.queue;
        EXPECT_EQ(row.windowCoverage, offline.value().windowCoverage)
            << row.queue;
        EXPECT_EQ(row.drift, offline.value().drift) << row.queue;
        EXPECT_EQ(row.pValue, offline.value().pValue) << row.queue;
        EXPECT_EQ(row.failing, offline.value().failing) << row.queue;
        EXPECT_EQ(row.windowCount, sim::QueueCore::kWindowCapacity)
            << row.queue;
    }
    if (method != "lognormal") {
        EXPECT_GT(trims, 0u) << "the regime shift must exercise trims";
    }
}

std::string
parityCaseName(const ::testing::TestParamInfo<ParityCase> &info)
{
    const char *const shapes[] = {"whole_seconds", "fractional",
                                  "equal_instant"};
    std::string name = std::get<0>(info.param);
    std::replace(name.begin(), name.end(), '-', '_');
    return name + "_" + shapes[static_cast<int>(std::get<1>(info.param))];
}

INSTANTIATE_TEST_SUITE_P(
    MethodsByShapes, CalibrationParity,
    ::testing::Combine(::testing::Values("bmbp", "lognormal",
                                         "lognormal-trim"),
                       ::testing::Values(ParityShape::WholeSeconds,
                                         ParityShape::Fractional,
                                         ParityShape::EqualInstant)),
    parityCaseName);

TEST(Calibration, RegimeShiftTripsTheFailingFlagThroughTheService)
{
    // The non-trimming log-normal baseline cannot follow a 50x jump in
    // waits: its bound stays anchored to the old regime, coverage
    // collapses, and the binomial test must say so.
    ServiceConfig config;
    config.registry.shards = 2;
    config.registry.method = "lognormal";
    config.registry.epochSeconds = 300.0;
    config.registry.trainJobs = 50;
    auto opened = BoundService::open(config);
    ASSERT_TRUE(opened.ok()) << opened.error().str();
    BoundService &service = *opened.value();

    std::mt19937 rng(5);
    std::lognormal_distribution<double> calm(4.0, 0.5);
    std::lognormal_distribution<double> storm(8.0, 0.5);
    std::vector<trace::JobRecord> jobs;
    for (size_t i = 0; i < 1200; ++i) {
        trace::JobRecord job;
        job.submitTime = 60.0 * static_cast<double>(i);
        job.waitSeconds = std::round(i < 800 ? calm(rng) : storm(rng));
        job.procs = 4;
        job.queue = "q";
        jobs.push_back(job);
    }
    const auto events = eventsFromJobs(jobs, "m");
    const auto ingest_until = [&](double horizon, size_t *next) {
        for (; *next < events.size() && events[*next].time < horizon;
             ++*next) {
            ASSERT_TRUE(service.ingest(events[*next]).ok());
        }
    };

    size_t next = 0;
    ingest_until(jobs[800].submitTime, &next);
    auto report = service.registry().calibrationReport();
    ASSERT_EQ(report.rows.size(), 1u);
    ASSERT_GE(report.rows[0].windowCount, 50u);
    EXPECT_FALSE(report.rows[0].failing) << "calm regime is covered";

    ingest_until(std::numeric_limits<double>::infinity(), &next);
    report = service.registry().calibrationReport();
    EXPECT_TRUE(report.rows[0].failing);
    EXPECT_LT(report.rows[0].windowCoverage, 0.5);
    EXPECT_EQ(report.failingEntries, 1u);
}

} // namespace
} // namespace serve
} // namespace qdel
