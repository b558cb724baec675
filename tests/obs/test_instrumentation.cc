/**
 * @file
 * End-to-end instrumentation tests: the domain metrics that the
 * predictors, replay, persistence, serve ingest and trace-ingestion
 * pipelines feed must agree with the ground truth those pipelines
 * report themselves (ReplayResult counters, trimCount(), cache status
 * lines).
 */

#include <filesystem>
#include <string>

#include <gtest/gtest.h>

#include "core/bmbp_predictor.hh"
#include "obs/domain_metrics.hh"
#include "obs/events.hh"
#include "obs/metrics.hh"
#include "serve/service.hh"
#include "sim/replay/replay_simulator.hh"
#include "trace/native_format.hh"
#include "trace/trace.hh"
#include "trace/trace_loader.hh"

namespace qdel {
namespace obs {
namespace {

/** Enabled collection with clean counters around every test. */
class InstrumentationTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        wasEnabled_ = enabled();
        registry().resetForTest();
        events().clear();
        setEnabled(true);
    }

    void TearDown() override
    {
        setEnabled(wasEnabled_);
        registry().resetForTest();
        events().clear();
    }

  private:
    bool wasEnabled_ = false;
};

/** A two-regime trace: quiet waits, then a sustained 1000x level shift. */
trace::Trace
nonstationaryTrace(size_t quiet, size_t loud)
{
    trace::Trace t;
    double submit = 1000.0;
    for (size_t i = 0; i < quiet + loud; ++i) {
        trace::JobRecord job;
        job.submitTime = submit;
        job.waitSeconds = i < quiet ? 10.0 + 0.01 * (i % 7)
                                    : 10000.0 + 0.01 * (i % 7);
        submit += 60.0;
        t.add(job);
    }
    return t;
}

TEST_F(InstrumentationTest, RareEventCounterMatchesTrimCount)
{
    // The satellite regression: replaying a synthetic nonstationary
    // trace must fire the rare-event detector, and the counter must
    // agree exactly with the predictor's own trim count.
    core::BmbpConfig config;
    config.runThresholdOverride = 3;
    core::BmbpPredictor predictor(config);

    sim::ReplayConfig config_replay;
    config_replay.epochSeconds = 300.0;
    config_replay.trainFraction = 0.10;
    sim::ReplaySimulator replay(config_replay);
    auto result = replay.run(nonstationaryTrace(500, 500), predictor);
    ASSERT_TRUE(result.ok()) << result.error().str();

    EXPECT_GE(predictor.trimCount(), 1u);
    EXPECT_EQ(coreMetrics().rareEventFired.value(),
              predictor.trimCount());
    // Every fired trim began as a run; runs may also start and die out.
    EXPECT_GE(coreMetrics().rareRunStarted.value(),
              coreMetrics().rareEventFired.value());
    // The run-length gauge tracks the predictor's live run.
    EXPECT_EQ(coreMetrics().rareRunLength.value(),
              static_cast<double>(predictor.currentRun()));
    // Jobs still waiting at the end of the trace are never released,
    // so observations lag totalJobs but must account for every release.
    EXPECT_GT(coreMetrics().observations.value(), 0u);
    EXPECT_LE(coreMetrics().observations.value(),
              result.value().totalJobs);

    // The event ring saw one rare_event_fired per trim (ring capacity
    // far exceeds this run's event volume).
    size_t fired_events = 0;
    for (const auto &event : events().drain()) {
        if (event.type == EventType::RareEventFired)
            ++fired_events;
    }
    EXPECT_EQ(fired_events, predictor.trimCount());
}

TEST_F(InstrumentationTest, ReplayMetricsMatchReplayResult)
{
    core::BmbpPredictor predictor;
    sim::ReplayConfig config_replay;
    config_replay.epochSeconds = 300.0;
    config_replay.trainFraction = 0.10;
    sim::ReplaySimulator replay(config_replay);
    auto run = replay.run(nonstationaryTrace(400, 100), predictor);
    ASSERT_TRUE(run.ok()) << run.error().str();
    const sim::ReplayResult &result = run.value();

    const auto &metrics = replayMetrics();
    EXPECT_EQ(metrics.jobsProcessed.value(), result.totalJobs);
    EXPECT_EQ(metrics.predictions.value(), result.evaluatedJobs);
    EXPECT_EQ(metrics.infinitePredictions.value(),
              result.infinitePredictions);
    EXPECT_EQ(metrics.boundHits.value(),
              result.correct - result.infinitePredictions);
    EXPECT_EQ(metrics.boundMisses.value(),
              result.evaluatedJobs - result.correct);
}

TEST_F(InstrumentationTest, CheckpointRecoveryAndWalMetrics)
{
    const std::string dir =
        ::testing::TempDir() + "qdel_obs_ckpt_metrics";
    std::filesystem::remove_all(dir);  // stale state from prior runs

    sim::ReplayCheckpointOptions ckpt;
    ckpt.dir = dir;
    ckpt.intervalJobs = 100;
    {
        core::BmbpPredictor predictor;
        sim::ReplayConfig config_replay;
        config_replay.epochSeconds = 300.0;
        config_replay.trainFraction = 0.10;
        sim::ReplaySimulator replay(config_replay);
        auto run = replay.run(nonstationaryTrace(300, 0), predictor,
                              {}, ckpt);
        ASSERT_TRUE(run.ok()) << run.error().str();
    }
    EXPECT_GE(persistMetrics().checkpointsWritten.value(), 2u);
    // Replay checkpoints are snapshot-only: the trace is the log.
    EXPECT_EQ(persistMetrics().walAppends.value(), 0u);
    EXPECT_GE(persistMetrics().fsyncSeconds.count(), 1u);
    EXPECT_GE(persistMetrics().checkpointSeconds.count(), 1u);
    const uint64_t recoveries_before =
        persistMetrics().recoveries.value();

    // A resumed run exercises the recovery ladder and reports its rung.
    ckpt.resume = true;
    {
        core::BmbpPredictor predictor;
        sim::ReplayConfig config_replay;
        config_replay.epochSeconds = 300.0;
        config_replay.trainFraction = 0.10;
        sim::ReplaySimulator replay(config_replay);
        auto run = replay.run(nonstationaryTrace(300, 0), predictor,
                              {}, ckpt);
        ASSERT_TRUE(run.ok()) << run.error().str();
    }
    EXPECT_GT(persistMetrics().recoveries.value(), recoveries_before);
    const double rung = persistMetrics().recoveryRung.value();
    EXPECT_GE(rung, 1.0);
    EXPECT_LE(rung, 4.0);

    // WAL appends happen where events are logged: a durable service's
    // ingest.
    const std::string state_dir =
        ::testing::TempDir() + "qdel_obs_wal_metrics";
    std::filesystem::remove_all(state_dir);
    serve::ServiceConfig config_serve;
    config_serve.stateDir = state_dir;
    auto service = serve::BoundService::open(config_serve);
    ASSERT_TRUE(service.ok()) << service.error().str();
    serve::JobEvent submit;
    submit.jobId = 1;
    submit.machine = "m";
    ASSERT_TRUE(service.value()->ingest(submit).ok());
    EXPECT_GE(persistMetrics().walAppends.value(), 1u);
}

TEST_F(InstrumentationTest, IngestAndCacheMetrics)
{
    const std::string path =
        ::testing::TempDir() + "qdel_obs_ingest.txt";
    auto saved = trace::saveNativeTrace(nonstationaryTrace(50, 0), path);
    ASSERT_TRUE(saved.ok()) << saved.error().str();

    auto loaded = trace::loadTrace(path, {});
    ASSERT_TRUE(loaded.ok()) << loaded.error().str();
    EXPECT_EQ(ingestMetrics().recordsParsed.value(), 50u);
    EXPECT_GE(ingestMetrics().linesParsed.value(), 50u);
    EXPECT_GT(ingestMetrics().parseBytes.value(), 0u);
    EXPECT_GE(ingestMetrics().parseSeconds.count(), 1u);

    // First cached load: miss + text parse; second: pure cache hit.
    const std::string cache_dir =
        ::testing::TempDir() + "qdel_obs_ingest_cache";
    std::filesystem::remove_all(cache_dir);  // stale caches
    std::filesystem::create_directories(cache_dir);
    trace::TraceLoadOptions cache_options;
    cache_options.cache = true;
    cache_options.cacheDir = cache_dir;
    auto first = trace::loadTrace(path, cache_options);
    ASSERT_TRUE(first.ok()) << first.error().str();
    EXPECT_EQ(ingestMetrics().cacheMisses.value(), 1u);
    EXPECT_EQ(ingestMetrics().cacheHits.value(), 0u);

    auto second = trace::loadTrace(path, cache_options);
    ASSERT_TRUE(second.ok()) << second.error().str();
    EXPECT_EQ(ingestMetrics().cacheHits.value(), 1u);
    EXPECT_EQ(second.value().size(), 50u);

    bool saw_hit_event = false;
    for (const auto &event : events().drain()) {
        if (event.type == EventType::CacheHit) {
            saw_hit_event = true;
            EXPECT_EQ(event.a, 50.0);
        }
    }
    EXPECT_TRUE(saw_hit_event);
}

} // namespace
} // namespace obs
} // namespace qdel
