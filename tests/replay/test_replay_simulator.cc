/**
 * @file
 * Tests for the paper-Section-5.1 replay simulator: information
 * visibility rules, epoch semantics, training split, scoring
 * identities, and the figure/table probes.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "core/bmbp_predictor.hh"
#include "core/predictor_factory.hh"
#include "persist/state_codec.hh"
#include "sim/replay/evaluation.hh"
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

TEST(Replay, RejectsNonFiniteSubmitTimes)
{
    const double nan = std::numeric_limits<double>::quiet_NaN();
    // (5, NaN, 3) has no descending pair, so it counts as sorted; a
    // lone NaN is sorted trivially. Both are refused before any work.
    trace::Trace between;
    for (double submit : {5.0, nan, 3.0})
        between.add({submit, 1.0, 1, -1.0, ""});
    EXPECT_TRUE(between.isSorted());
    trace::Trace lone;
    lone.add({nan, 1.0, 1, -1.0, ""});
    trace::Trace infinite;
    infinite.add({1.0, 1.0, 1, -1.0, ""});
    infinite.add({std::numeric_limits<double>::infinity(), 1.0, 1, -1.0,
                  ""});
    for (const trace::Trace *t : {&between, &lone, &infinite}) {
        EXPECT_FALSE(t->submitTimesFinite());
        ProbePredictor predictor;
        auto result = ReplaySimulator().run(*t, predictor);
        ASSERT_FALSE(result.ok());
        EXPECT_EQ(result.error().field, "trace");
        EXPECT_NE(result.error().reason.find("non-finite"),
                  std::string::npos);
        EXPECT_TRUE(predictor.observed.empty());
    }
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

/**
 * Groups of one to five jobs share a submit instant and differ in
 * wait; a regime shift halfway provokes change-point trims, and most
 * jobs start on a 1800 s grid, so dozens release at one instant. Each
 * group's jobs are listed in the order @p seed shuffles them to (0
 * keeps the generated order).
 */
trace::Trace
sharedSubmitTrace(uint32_t seed)
{
    stats::Rng rng(42);
    std::mt19937 shuffle(seed);
    trace::Trace t;
    double submit = 5'000.0;
    const size_t groups = 1'200;
    for (size_t g = 0; g < groups; ++g) {
        submit += 30.0 * static_cast<double>(rng.uniformInt(1, 6));
        std::vector<trace::JobRecord> group;
        const int size = static_cast<int>(rng.uniformInt(1, 5));
        for (int k = 0; k < size; ++k) {
            trace::JobRecord job;
            job.submitTime = submit;
            job.waitSeconds = std::ceil(
                rng.logNormal(g < groups / 2 ? 5.0 : 8.0, 1.0));
            if (rng.bernoulli(0.7)) {
                job.waitSeconds =
                    1800.0 * std::ceil((submit + job.waitSeconds) /
                                       1800.0) -
                    submit;
            }
            group.push_back(job);
        }
        if (seed != 0)
            std::shuffle(group.begin(), group.end(), shuffle);
        for (const trace::JobRecord &job : group)
            t.add(job);
    }
    return t;
}

TEST(Replay, ResultIgnoresTheOrderOfJobsSharingASubmit)
{
    // No training prefix: its cut could split a group, and which jobs
    // of a group fall before it does depend on their order.
    const ReplaySimulator simulator({300.0, 0.0});
    for (const char *method : {"bmbp", "lognormal-trim"}) {
        auto predictor = core::makePredictor(method, {});
        const auto reference =
            simulator.run(sharedSubmitTrace(0), *predictor).value();
        EXPECT_GT(predictorTrimCount(*predictor), 0u) << method;
        for (uint32_t seed : {1u, 2u, 3u, 4u}) {
            auto shuffled = core::makePredictor(method, {});
            const auto result =
                simulator.run(sharedSubmitTrace(seed), *shuffled).value();
            EXPECT_EQ(result.evaluatedJobs, reference.evaluatedJobs);
            EXPECT_EQ(result.correct, reference.correct)
                << method << " seed " << seed;
            EXPECT_EQ(result.infinitePredictions,
                      reference.infinitePredictions);
            EXPECT_EQ(result.correctFraction, reference.correctFraction);
            EXPECT_EQ(result.medianRatio, reference.medianRatio)
                << method << " seed " << seed;
        }
    }
}

/** ProbePredictor whose in-force bound survives saveState/loadState. */
class PersistedProbe : public ProbePredictor
{
  public:
    Expected<Unit>
    saveState(persist::StateWriter &writer) const override
    {
        writer.f64(current.value);
        return Unit{};
    }

    Expected<Unit>
    loadState(persist::StateReader &reader) override
    {
        const double bound = reader.f64();
        if (!reader.ok())
            return reader.error();
        current = core::QuantileEstimate{bound};
        return Unit{};
    }
};

TEST(QueueCoreWindow, WrapsAtCapacityInReleaseOrderAndRoundTrips)
{
    constexpr size_t kCapacity = QueueCore::kWindowCapacity;
    constexpr double kInf = std::numeric_limits<double>::infinity();

    // Live scoring: the ring holds the newest kCapacity outcomes, and
    // an infinite bound records a hit.
    {
        ProbePredictor predictor;
        QueueCore core(predictor, {300.0, 0});
        for (size_t i = 0; i < kCapacity; ++i)
            EXPECT_FALSE(core.scoreRelease(1.0, 2.0));
        EXPECT_EQ(core.windowCount(), kCapacity);
        EXPECT_EQ(core.windowHits(), 0u);
        for (size_t i = 0; i < kCapacity; ++i)
            EXPECT_TRUE(core.scoreRelease(kInf, 2.0));
        EXPECT_EQ(core.windowHits(), kCapacity);
        for (int i = 0; i < 10; ++i)
            core.scoreRelease(1.0, 2.0);
        EXPECT_EQ(core.windowCount(), kCapacity);
        EXPECT_EQ(core.windowHits(), kCapacity - 10);
    }

    // Offline: 300 jobs one second apart under a bound of 100. Job 0
    // waits 5000 s (a miss) and every other job 10 s (a hit), so the
    // miss is submitted first but released last. In release order the
    // newest 256 outcomes are 255 hits and then the miss; in submit
    // order the miss would have been evicted.
    std::vector<double> submits, waits;
    for (size_t i = 0; i < 300; ++i) {
        submits.push_back(1000.0 + static_cast<double>(i));
        waits.push_back(i == 0 ? 5000.0 : 10.0);
    }
    PersistedProbe predictor;
    QueueCore core(predictor, {300.0, 0});
    core.processRows(submits.data(), waits.data(), 150);

    // Round trip mid-run, with the miss still pending.
    persist::StateWriter writer;
    ASSERT_TRUE(core.saveState(writer).ok());
    PersistedProbe restored_predictor;
    QueueCore restored(restored_predictor, {300.0, 0});
    persist::StateReader reader(writer.bytes(), "core");
    ASSERT_TRUE(restored.loadState(reader).ok());
    ASSERT_TRUE(reader.expectEnd().ok());
    EXPECT_EQ(restored.windowCount(), core.windowCount());
    EXPECT_EQ(restored.windowHits(), core.windowHits());

    for (QueueCore *c : {&core, &restored})
        c->processRows(submits.data() + 150, waits.data() + 150, 150);
    for (QueueCore *c : {&core, &restored}) {
        // Pending jobs join the result's window, not the core's.
        const size_t held = c->windowCount();
        const ReplayResult result = c->result().value();
        EXPECT_EQ(c->windowCount(), held);
        EXPECT_EQ(result.evaluatedJobs, 300u);
        EXPECT_EQ(result.correct, 299u);
        EXPECT_EQ(result.windowCount, kCapacity);
        EXPECT_EQ(result.windowHits, kCapacity - 1);
        EXPECT_FALSE(result.failing);
    }

    // Draining past the last release (job 0's, at 6000 s) pops the
    // same outcomes in the same order.
    core.advanceTo(10'000.0);
    EXPECT_EQ(core.windowCount(), kCapacity);
    EXPECT_EQ(core.windowHits(), kCapacity - 1);
    // The miss is the newest outcome: 255 more hits keep it, the
    // 256th evicts it.
    for (size_t i = 0; i + 1 < kCapacity; ++i)
        core.scoreRelease(kInf, 1.0);
    EXPECT_EQ(core.windowHits(), kCapacity - 1);
    core.scoreRelease(kInf, 1.0);
    EXPECT_EQ(core.windowHits(), kCapacity);
}

TEST(QueueCoreDrain, InfiniteHorizonStopsOnceEveryLaterEpochIsIdle)
{
    // Draining to +inf must fire what draining to one epoch past the
    // last release fires, then stop: no release, snapshot or series
    // tick is left, so every later epoch would refit nothing.
    constexpr double kInf = std::numeric_limits<double>::infinity();
    const trace::Trace t = sharedSubmitTrace(0);
    std::vector<double> submits, waits;
    double last_release = 0.0;
    for (const trace::JobRecord &job : t) {
        submits.push_back(job.submitTime);
        waits.push_back(job.waitSeconds);
        last_release = std::max(last_release, job.startTime());
    }
    ReplayProbe probe;
    probe.captureSeries = true;
    probe.seriesBegin = submits[submits.size() / 4];
    probe.seriesEnd = submits[submits.size() / 2];
    probe.snapshotQuantiles = {{0.5, true}, {0.95, true}};
    const ReplayProbe *probes[] = {nullptr, &probe};
    for (const ReplayProbe *p : probes) {
        SCOPED_TRACE(p != nullptr ? "probe" : "no probe");
        auto finite_predictor = core::makePredictor("bmbp", {});
        auto infinite_predictor = core::makePredictor("bmbp", {});
        QueueCore finite(*finite_predictor, {300.0, 100}, p);
        QueueCore infinite(*infinite_predictor, {300.0, 100}, p);
        for (QueueCore *c : {&finite, &infinite})
            c->processRows(submits.data(), waits.data(), submits.size());
        finite.advanceTo(last_release + 300.0);
        infinite.advanceTo(kInf);

        EXPECT_EQ(infinite.windowCount(), finite.windowCount());
        EXPECT_EQ(infinite.windowHits(), finite.windowHits());
        EXPECT_EQ(infinite_predictor->upperBound().value,
                  finite_predictor->upperBound().value);
        const ReplayResult a = finite.result().value();
        const ReplayResult b = infinite.result().value();
        EXPECT_EQ(b.evaluatedJobs, a.evaluatedJobs);
        EXPECT_EQ(b.correct, a.correct);
        EXPECT_EQ(b.infinitePredictions, a.infinitePredictions);
        EXPECT_EQ(b.windowCount, a.windowCount);
        EXPECT_EQ(b.windowHits, a.windowHits);
        EXPECT_EQ(b.pValue, a.pValue);
        EXPECT_EQ(b.medianRatio, a.medianRatio);
        EXPECT_EQ(b.series.size(), a.series.size());
        EXPECT_EQ(b.snapshots.size(), a.snapshots.size());
        if (p != nullptr) {
            EXPECT_FALSE(a.series.empty());
            EXPECT_FALSE(a.snapshots.empty());
        }
    }
}

} // namespace
} // namespace sim
} // namespace qdel
