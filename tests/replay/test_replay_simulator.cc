/**
 * @file
 * Tests for the paper-Section-5.1 replay simulator: information
 * visibility rules, epoch semantics, training split, scoring
 * identities, and the figure/table probes.
 */

#include <chrono>
#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "core/bmbp_predictor.hh"
#include "sim/replay/replay_simulator.hh"
#include "stats/rng.hh"

namespace qdel {
namespace sim {
namespace {

/** Predictor stub that exposes exactly what the simulator did to it. */
class ProbePredictor : public core::Predictor
{
  public:
    std::string name() const override { return "probe"; }

    void
    observe(double wait) override
    {
        observed.push_back(wait);
    }

    void
    refit() override
    {
        ++refits;
        current = core::QuantileEstimate::of(fixedBound);
    }

    core::QuantileEstimate
    upperBound() const override
    {
        return current;
    }

    core::QuantileEstimate
    boundAt(double q, bool upper) const override
    {
        (void)upper;
        return core::QuantileEstimate::of(q * 100.0);
    }

    void
    finalizeTraining() override
    {
        ++finalizations;
        trainingSizeAtFinalize = observed.size();
    }

    size_t historySize() const override { return observed.size(); }

    std::vector<double> observed;
    size_t refits = 0;
    size_t finalizations = 0;
    size_t trainingSizeAtFinalize = 0;
    double fixedBound = 100.0;
    core::QuantileEstimate current = core::QuantileEstimate::infinite();
};

trace::Trace
simpleTrace(size_t count, double gap, double wait)
{
    trace::Trace t;
    for (size_t i = 0; i < count; ++i) {
        trace::JobRecord job;
        job.submitTime = 1000.0 + static_cast<double>(i) * gap;
        job.waitSeconds = wait;
        t.add(job);
    }
    return t;
}

TEST(Replay, AccountingIdentities)
{
    auto t = simpleTrace(100, 60.0, 10.0);
    ProbePredictor predictor;
    ReplaySimulator simulator({300.0, 0.10});
    auto result = simulator.run(t, predictor).value();

    EXPECT_EQ(result.totalJobs, 100u);
    EXPECT_EQ(result.trainingJobs, 10u);
    EXPECT_EQ(result.evaluatedJobs, 90u);
    EXPECT_EQ(result.correct, 90u);  // bound 100 >= wait 10
    EXPECT_DOUBLE_EQ(result.correctFraction, 1.0);
    EXPECT_DOUBLE_EQ(result.medianRatio, 0.1);
    EXPECT_EQ(predictor.finalizations, 1u);
}

TEST(Replay, FailuresCounted)
{
    auto t = simpleTrace(100, 60.0, 500.0);  // waits above the bound
    ProbePredictor predictor;
    ReplaySimulator simulator({300.0, 0.0});
    auto result = simulator.run(t, predictor).value();
    EXPECT_EQ(result.correct, 0u);
    EXPECT_DOUBLE_EQ(result.medianRatio, 5.0);
}

TEST(Replay, WaitVisibleOnlyAfterRelease)
{
    // One long-waiting job: while it pends, later arrivals must not
    // see its wait in history.
    trace::Trace t;
    t.add({0.0, 10000.0, 1, -1.0, ""});   // releases at t=10000
    t.add({500.0, 1.0, 1, -1.0, ""});     // releases at t=501
    t.add({600.0, 1.0, 1, -1.0, ""});
    t.add({20000.0, 1.0, 1, -1.0, ""});   // after the long release
    ProbePredictor predictor;
    ReplaySimulator simulator({300.0, 0.0});
    simulator.run(t, predictor).value();
    // The last job's release (t=20001) lies beyond the final arrival,
    // so only three waits ever become visible — in completion order
    // 501, 601, 10000, with the long wait strictly last.
    ASSERT_EQ(predictor.observed.size(), 3u);
    EXPECT_DOUBLE_EQ(predictor.observed[0], 1.0);
    EXPECT_DOUBLE_EQ(predictor.observed[1], 1.0);
    EXPECT_DOUBLE_EQ(predictor.observed[2], 10000.0);
}

TEST(Replay, EpochZeroRefitsPerJob)
{
    auto t = simpleTrace(50, 10.0, 1.0);
    ProbePredictor predictor;
    ReplaySimulator simulator({0.0, 0.0});
    simulator.run(t, predictor).value();
    // One refit per arrival (plus the finalize-training refit).
    EXPECT_GE(predictor.refits, 50u);
}

TEST(Replay, EpochCountMatchesSpan)
{
    // 100 jobs x 60 s apart = 5940 s of span -> ~20 epochs of 300 s.
    auto t = simpleTrace(100, 60.0, 1.0);
    ProbePredictor predictor;
    ReplaySimulator simulator({300.0, 0.0});
    simulator.run(t, predictor).value();
    EXPECT_GE(predictor.refits, 19u);
    EXPECT_LE(predictor.refits, 23u);
}

TEST(Replay, LongGapsAndFarFutureTimesFinishPromptly)
{
    // Idle epochs are skipped in one step, and an epoch below the
    // resolution of a double (1e20 + 300 == 1e20) still advances the
    // clock, so neither a 1e15 s gap nor such times stall the replay.
    trace::Trace t;
    for (double submit : {1000.0, 1060.0, 1e15, 1e15 + 60.0, 1e20, 1e20}) {
        trace::JobRecord job;
        job.submitTime = submit;
        job.waitSeconds = 30.0;
        t.add(job);
    }
    ProbePredictor predictor;
    ReplaySimulator simulator({300.0, 0.0});
    const auto begin = std::chrono::steady_clock::now();
    const auto result = simulator.run(t, predictor).value();
    EXPECT_LT(std::chrono::steady_clock::now() - begin,
              std::chrono::seconds(1));
    EXPECT_EQ(result.evaluatedJobs, t.size());
    // Only epochs after new observations refit, plus the finalize.
    EXPECT_LE(predictor.refits, 2 * t.size());
}

TEST(Replay, InfinitePredictionsCountedCorrect)
{
    auto t = simpleTrace(10, 60.0, 5.0);
    ProbePredictor predictor;
    // Never refit inside the window: the initial bound stays infinite.
    predictor.current = core::QuantileEstimate::infinite();
    predictor.fixedBound = std::numeric_limits<double>::infinity();
    ReplaySimulator simulator({300.0, 0.0});
    auto result = simulator.run(t, predictor).value();
    EXPECT_EQ(result.infinitePredictions, result.evaluatedJobs);
    EXPECT_DOUBLE_EQ(result.correctFraction, 1.0);
    EXPECT_DOUBLE_EQ(result.medianRatio, 0.0);  // no finite ratios
}

TEST(Replay, SeriesCaptureWindow)
{
    auto t = simpleTrace(200, 60.0, 1.0);
    ProbePredictor predictor;
    ReplaySimulator simulator({300.0, 0.0});
    ReplayProbe probe;
    probe.captureSeries = true;
    probe.seriesBegin = 1000.0 + 3000.0;
    probe.seriesEnd = 1000.0 + 6000.0;
    auto result = simulator.run(t, predictor, probe).value();
    ASSERT_FALSE(result.series.empty());
    for (const auto &point : result.series) {
        EXPECT_GE(point.time, probe.seriesBegin);
        EXPECT_LT(point.time, probe.seriesEnd);
        EXPECT_DOUBLE_EQ(point.value, 100.0);
    }
    // ~10 epochs inside the 3000 s window.
    EXPECT_NEAR(static_cast<double>(result.series.size()), 10.0, 2.0);
}

TEST(Replay, QuantileSnapshots)
{
    auto t = simpleTrace(200, 60.0, 1.0);
    ProbePredictor predictor;
    ReplaySimulator simulator({300.0, 0.0});
    ReplayProbe probe;
    probe.seriesBegin = 1000.0;
    probe.seriesEnd = 1000.0 + 8000.0;
    probe.snapshotInterval = 2000.0;
    probe.snapshotQuantiles = {{0.25, false}, {0.5, true}, {0.95, true}};
    auto result = simulator.run(t, predictor, probe).value();
    ASSERT_EQ(result.snapshots.size(), 4u);
    for (const auto &snap : result.snapshots) {
        ASSERT_EQ(snap.values.size(), 3u);
        EXPECT_DOUBLE_EQ(snap.values[0], 25.0);  // boundAt(q)=100q stub
        EXPECT_DOUBLE_EQ(snap.values[2], 95.0);
    }
}

TEST(Replay, TrainingFractionZeroFinalizesBeforeFirstJob)
{
    auto t = simpleTrace(5, 10.0, 1.0);
    ProbePredictor predictor;
    ReplaySimulator simulator({300.0, 0.0});
    simulator.run(t, predictor).value();
    EXPECT_EQ(predictor.finalizations, 1u);
    EXPECT_EQ(predictor.trainingSizeAtFinalize, 0u);
}

TEST(Replay, RejectsUnsortedTrace)
{
    trace::Trace t;
    t.add({100.0, 1.0, 1, -1.0, ""});
    t.add({50.0, 1.0, 1, -1.0, ""});
    ProbePredictor predictor;
    ReplaySimulator simulator;
    auto result = simulator.run(t, predictor);
    ASSERT_FALSE(result.ok());
    EXPECT_NE(result.error().reason.find("sorted"), std::string::npos);
}

TEST(Replay, RejectsBadConfig)
{
    auto t = simpleTrace(5, 10.0, 1.0);
    ProbePredictor predictor;
    {
        auto result = ReplaySimulator({300.0, 1.0}).run(t, predictor);
        ASSERT_FALSE(result.ok());
        EXPECT_EQ(result.error().field, "trainFraction");
    }
    {
        auto result = ReplaySimulator({-1.0, 0.1}).run(t, predictor);
        ASSERT_FALSE(result.ok());
        EXPECT_EQ(result.error().field, "epochSeconds");
    }
    {
        const double nan = std::numeric_limits<double>::quiet_NaN();
        EXPECT_FALSE(ReplaySimulator({nan, 0.1}).run(t, predictor).ok());
        EXPECT_FALSE(ReplaySimulator({300.0, nan}).run(t, predictor).ok());
    }
}

TEST(Replay, RejectsNonPositiveSnapshotInterval)
{
    // Regression: a snapshot probe with interval <= 0 used to re-arm
    // the snapshot tick at the same virtual time and loop forever.
    // It must now terminate with a validation error instead.
    auto t = simpleTrace(50, 60.0, 1.0);
    ProbePredictor predictor;
    ReplaySimulator simulator({300.0, 0.0});
    ReplayProbe probe;
    probe.seriesBegin = 1000.0;
    probe.seriesEnd = 3000.0;
    probe.snapshotQuantiles = {{0.5, true}};
    for (double interval : {0.0, -5.0,
                            std::numeric_limits<double>::quiet_NaN(),
                            std::numeric_limits<double>::infinity()}) {
        probe.snapshotInterval = interval;
        auto result = simulator.run(t, predictor, probe);
        ASSERT_FALSE(result.ok());
        EXPECT_EQ(result.error().field, "snapshotInterval");
    }
}

TEST(Replay, RejectsBadProbeQuantilesAndWindow)
{
    auto t = simpleTrace(10, 60.0, 1.0);
    ProbePredictor predictor;
    ReplaySimulator simulator({300.0, 0.0});
    {
        ReplayProbe probe;
        probe.seriesBegin = 0.0;
        probe.seriesEnd = 100.0;
        probe.snapshotInterval = 10.0;
        probe.snapshotQuantiles = {{1.5, true}};
        auto result = simulator.run(t, predictor, probe);
        ASSERT_FALSE(result.ok());
        EXPECT_EQ(result.error().field, "snapshotQuantiles");
    }
    {
        ReplayProbe probe;
        probe.captureSeries = true;
        probe.seriesBegin = 100.0;
        probe.seriesEnd = 0.0;  // end before begin
        auto result = simulator.run(t, predictor, probe);
        ASSERT_FALSE(result.ok());
    }
}

TEST(Replay, EmptyTrace)
{
    trace::Trace t;
    ProbePredictor predictor;
    ReplaySimulator simulator;
    auto result = simulator.run(t, predictor).value();
    EXPECT_EQ(result.totalJobs, 0u);
    EXPECT_EQ(result.evaluatedJobs, 0u);
}

} // namespace
} // namespace sim
} // namespace qdel
