/**
 * @file
 * Unit tests for the log-normal baseline predictor (paper Section 4.2).
 */

#include <cmath>
#include <cstring>
#include <latch>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/lognormal_predictor.hh"
#include "serve/bound_registry.hh"
#include "stats/rng.hh"
#include "stats/tolerance.hh"

namespace qdel {
namespace core {
namespace {

TEST(LogNormalPredictor, Names)
{
    LogNormalConfig trim_config;
    trim_config.trimmingEnabled = true;
    EXPECT_EQ(LogNormalPredictor().name(), "lognormal");
    EXPECT_EQ(LogNormalPredictor(trim_config).name(), "lognormal-trim");
}

TEST(LogNormalPredictor, NoBoundBelowTwoObservations)
{
    LogNormalPredictor predictor;
    predictor.refit();
    EXPECT_FALSE(predictor.upperBound().finite());
    predictor.observe(10.0);
    predictor.refit();
    EXPECT_FALSE(predictor.upperBound().finite());
    predictor.observe(20.0);
    predictor.refit();
    EXPECT_TRUE(predictor.upperBound().finite());
}

TEST(LogNormalPredictor, MatchesHandComputedBound)
{
    // Sample of logs {0, 2}: m = 1, s = sqrt(2); bound = exp(m + k s).
    LogNormalPredictor predictor;
    predictor.observe(std::exp(0.0));
    predictor.observe(std::exp(2.0));
    predictor.refit();
    const double k = stats::normalToleranceFactorExact(2, 0.95, 0.95);
    const double expected = std::exp(1.0 + k * std::sqrt(2.0));
    EXPECT_NEAR(predictor.upperBound().value, expected,
                1e-9 * expected);
}

TEST(LogNormalPredictor, EpsilonFloorsZeroWaits)
{
    // Waits of zero seconds are floored at epsilon (1 s -> log 0).
    LogNormalPredictor predictor;
    predictor.observe(0.0);
    predictor.observe(0.0);
    predictor.observe(std::exp(3.0));
    predictor.refit();
    // logs = {0, 0, 3}: finite, positive bound.
    ASSERT_TRUE(predictor.upperBound().finite());
    EXPECT_GT(predictor.upperBound().value, 1.0);
}

TEST(LogNormalPredictor, CoversTrueQuantileOnLogNormalData)
{
    LogNormalPredictor predictor;
    stats::Rng rng(12);
    for (int i = 0; i < 20000; ++i)
        predictor.observe(rng.logNormal(5.0, 2.0));
    predictor.refit();
    const double true_q95 = std::exp(5.0 + 1.6448536269514722 * 2.0);
    // With 20k samples the tolerance bound hugs the true quantile from
    // above.
    EXPECT_GT(predictor.upperBound().value, 0.93 * true_q95);
    EXPECT_LT(predictor.upperBound().value, 1.3 * true_q95);
}

TEST(LogNormalPredictor, TrimVariantAdaptsToLevelShift)
{
    LogNormalConfig config;
    config.trimmingEnabled = true;
    config.runThresholdOverride = 3;
    LogNormalPredictor predictor(config);
    stats::Rng rng(13);
    for (int i = 0; i < 2000; ++i)
        predictor.observe(rng.logNormal(2.0, 0.5));
    predictor.refit();
    const double before = predictor.upperBound().value;

    // Regime shift: waits jump by e^4.
    for (int i = 0; i < 10; ++i)
        predictor.observe(rng.logNormal(6.0, 0.5));
    EXPECT_GE(predictor.trimCount(), 1u);
    predictor.refit();
    EXPECT_GT(predictor.upperBound().value, before * 5.0);
    // History was cut to the minimal meaningful sample.
    EXPECT_LE(predictor.historySize(), 59u + 10u);
}

TEST(LogNormalPredictor, NoTrimVariantNeverTrims)
{
    LogNormalPredictor predictor;  // trimming off by default
    stats::Rng rng(14);
    for (int i = 0; i < 500; ++i)
        predictor.observe(rng.logNormal(2.0, 0.5));
    predictor.refit();
    for (int i = 0; i < 50; ++i)
        predictor.observe(1e12);
    EXPECT_EQ(predictor.trimCount(), 0u);
    EXPECT_EQ(predictor.historySize(), 550u);
}

TEST(LogNormalPredictor, LowerBoundBelowUpperBound)
{
    LogNormalPredictor predictor;
    stats::Rng rng(15);
    for (int i = 0; i < 1000; ++i)
        predictor.observe(rng.logNormal(3.0, 1.0));
    predictor.refit();
    const auto upper = predictor.boundAt(0.5, true);
    const auto lower = predictor.boundAt(0.5, false);
    ASSERT_TRUE(upper.finite());
    EXPECT_LT(lower.value, upper.value);
    // Both bracket the true median e^3.
    EXPECT_GT(upper.value, std::exp(3.0) * 0.9);
    EXPECT_LT(lower.value, std::exp(3.0) * 1.1);
}

TEST(LogNormalPredictor, BoundMonotoneInQuantile)
{
    LogNormalPredictor predictor;
    stats::Rng rng(16);
    for (int i = 0; i < 500; ++i)
        predictor.observe(rng.logNormal(1.0, 1.0));
    predictor.refit();
    EXPECT_LT(predictor.boundAt(0.5, true).value,
              predictor.boundAt(0.75, true).value);
    EXPECT_LT(predictor.boundAt(0.75, true).value,
              predictor.boundAt(0.95, true).value);
}

TEST(LogNormalPredictor, ConstantHistoryDegenerates)
{
    // Zero variance: the bound collapses to the constant itself.
    LogNormalPredictor predictor;
    for (int i = 0; i < 100; ++i)
        predictor.observe(50.0);
    predictor.refit();
    EXPECT_NEAR(predictor.upperBound().value, 50.0, 1e-3);
}

/** Every bound boundGrid() gives over the served grid, both sides. */
void
appendGrid(const LogNormalPredictor &predictor, std::vector<double> &out)
{
    QuantileEstimate upper[serve::kGridCount];
    QuantileEstimate lower[serve::kGridCount];
    predictor.boundGrid(serve::kGridQuantiles, serve::kGridCount, upper,
                        lower);
    for (size_t i = 0; i < serve::kGridCount; ++i) {
        out.push_back(upper[i].value);
        out.push_back(lower[i].value);
    }
}

/**
 * A fresh predictor fed @p waits with a refit and a grid after each
 * observation (the cold path of a served entry), interleaved with grid
 * queries against @p shared.
 */
std::vector<double>
coldEntryBounds(bool trimming, const std::vector<double> &waits,
                const LogNormalPredictor &shared)
{
    LogNormalConfig config;
    config.trimmingEnabled = trimming;
    LogNormalPredictor predictor(config);
    std::vector<double> out;
    for (double wait : waits) {
        predictor.observe(wait);
        predictor.refit();
        out.push_back(predictor.upperBound().value);
        appendGrid(predictor, out);
        appendGrid(shared, out);
    }
    return out;
}

bool
sameBits(const std::vector<double> &a, const std::vector<double> &b)
{
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/**
 * Eight threads race through the process-wide K' table from cold:
 * fresh lognormal and lognormal-trim predictors up to n = 400 (a level
 * shift at 250 makes the trim variant cut back into the exact range),
 * plus boundAt() on one shared const predictor. Every bound equals the
 * single-threaded run's bits, and every slot the race filled equals
 * the exact factor.
 */
TEST(LogNormalPredictorConcurrent, ColdEntriesMatchSingleThreadedBits)
{
    stats::Rng rng(17);
    std::vector<double> waits;
    for (int i = 0; i < 400; ++i)
        waits.push_back(rng.logNormal(i < 250 ? 2.0 : 6.0, 0.5));
    // Observed but never refit or queried: the table stays cold.
    LogNormalPredictor shared;
    for (int i = 0; i < 200; ++i)
        shared.observe(rng.logNormal(3.0, 1.0));

    constexpr int kThreads = 8;
    std::vector<std::vector<double>> plain(kThreads), trimmed(kThreads);
    std::latch start(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            start.arrive_and_wait();
            // Half the threads start on the other variant, so both
            // variants race on the same empty slots.
            if (t % 2 == 0) {
                plain[t] = coldEntryBounds(false, waits, shared);
                trimmed[t] = coldEntryBounds(true, waits, shared);
            } else {
                trimmed[t] = coldEntryBounds(true, waits, shared);
                plain[t] = coldEntryBounds(false, waits, shared);
            }
        });
    }
    for (auto &thread : threads)
        thread.join();

    std::vector<double> quantiles;
    for (double q : serve::kGridQuantiles) {
        quantiles.push_back(q);
        quantiles.push_back(1.0 - q);
    }
    for (double q : quantiles) {
        for (size_t n = 2; n <= 300; ++n) {
            const double memo = stats::normalToleranceFactor(n, q, 0.95);
            const double exact =
                stats::normalToleranceFactorExact(n, q, 0.95);
            ASSERT_EQ(std::memcmp(&memo, &exact, sizeof exact), 0)
                << "n=" << n << " q=" << q;
        }
    }

    const auto plain_reference = coldEntryBounds(false, waits, shared);
    const auto trimmed_reference = coldEntryBounds(true, waits, shared);
    EXPECT_EQ(plain_reference.size(), 400u * (1 + 4 * serve::kGridCount));
    for (int t = 0; t < kThreads; ++t) {
        EXPECT_TRUE(sameBits(plain[t], plain_reference)) << "thread " << t;
        EXPECT_TRUE(sameBits(trimmed[t], trimmed_reference))
            << "thread " << t;
    }
}

} // namespace
} // namespace core
} // namespace qdel
