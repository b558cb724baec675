/**
 * @file
 * End-to-end statistical property tests: the full replay pipeline must
 * deliver the paper's headline guarantee — BMBP's fraction of correct
 * predictions meets the advertised quantile — across distribution
 * shapes, autocorrelation levels, and quantile/confidence settings.
 */

#include <cmath>
#include <functional>
#include <ostream>
#include <string>

#include <gtest/gtest.h>

#include "core/predictor_factory.hh"
#include "sim/replay/evaluation.hh"
#include "sim/replay/replay_simulator.hh"
#include "stats/distributions.hh"
#include "stats/special_functions.hh"
#include "stats/rng.hh"

namespace qdel {
namespace {

/** Build an i.i.d.-marginal trace with tunable shape and rho. */
trace::Trace
makeTrace(int shape, double rho, size_t count, uint64_t seed)
{
    stats::Rng rng(seed);
    trace::Trace t;
    double z = rng.normal();
    const double innovation = std::sqrt(1.0 - rho * rho);
    for (size_t i = 0; i < count; ++i) {
        z = rho * z + innovation * rng.normal();
        double wait = 0.0;
        switch (shape) {
          case 0:  // log-normal
            wait = std::exp(3.0 + 2.0 * z);
            break;
          case 1:  // uniform-ish (probability integral transform)
            wait = 1000.0 * stats::normalCdf(z);
            break;
          case 2:  // Pareto via inverse CDF
            wait = std::pow(1.0 - stats::normalCdf(z), -1.0 / 1.2);
            break;
          default:  // bimodal backfill mixture (dominant fast mode)
            wait = rng.bernoulli(0.65) ? std::exp(1.0 + 0.8 * z)
                                       : std::exp(8.0 + 2.0 * z);
            break;
        }
        trace::JobRecord job;
        job.submitTime = 1000.0 + static_cast<double>(i) * 90.0;
        job.waitSeconds = wait;
        t.add(job);
    }
    return t;
}

struct CoverageCase
{
    const char *name;
    int shape;
    double rho;
};

class PipelineCoverage : public ::testing::TestWithParam<CoverageCase>
{
};

TEST_P(PipelineCoverage, BmbpMeetsAdvertisedQuantile)
{
    const auto &params = GetParam();
    auto t = makeTrace(params.shape, params.rho, 20000, 11);
    core::PredictorOptions options;
    auto cell = sim::evaluateTrace(t, "bmbp", options);
    // Stationary series: correctness must meet the quantile modulo
    // small-sample noise (the paper's own criterion after rounding).
    EXPECT_GE(cell.correctFraction, 0.945) << params.name;
    // And must not be uselessly conservative (paper Section 3's
    // "astronomically large guess" caveat).
    EXPECT_LE(cell.correctFraction, 0.995) << params.name;
}

INSTANTIATE_TEST_SUITE_P(
    ShapesAndRho, PipelineCoverage,
    ::testing::Values(CoverageCase{"lognormal_iid", 0, 0.0},
                      CoverageCase{"lognormal_rho06", 0, 0.6},
                      CoverageCase{"uniform_iid", 1, 0.0},
                      CoverageCase{"pareto_rho03", 2, 0.3},
                      CoverageCase{"bimodal_iid", 3, 0.0},
                      CoverageCase{"bimodal_rho05", 3, 0.5}),
    [](const auto &info) { return std::string(info.param.name); });

/** The guarantee holds for other quantile/confidence pairs too. */
class QuantileSweep
    : public ::testing::TestWithParam<std::pair<double, double>>
{
};

TEST_P(QuantileSweep, BmbpCoversConfiguredQuantile)
{
    const auto &[quantile, confidence] = GetParam();
    auto t = makeTrace(0, 0.3, 20000, 5);
    core::PredictorOptions options;
    options.quantile = quantile;
    options.confidence = confidence;
    auto cell = sim::evaluateTrace(t, "bmbp", options);
    EXPECT_GE(cell.correctFraction, quantile - 0.01)
        << "q=" << quantile << " C=" << confidence;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, QuantileSweep,
    ::testing::Values(std::make_pair(0.5, 0.95),
                      std::make_pair(0.75, 0.95),
                      std::make_pair(0.9, 0.9),
                      std::make_pair(0.95, 0.99),
                      std::make_pair(0.99, 0.95)));

/** A wait distribution with an exact quantile function. */
struct ExactCase
{
    const char *name;
    std::function<double(double)> quantile;
};

/** Print the name only, so test names stay stable across builds. */
void
PrintTo(const ExactCase &exact_case, std::ostream *out)
{
    *out << exact_case.name;
}

class ExactQuantileOracle : public ::testing::TestWithParam<ExactCase>
{
};

/**
 * I.i.d. waits drawn by inverse transform from a distribution whose
 * quantile is known exactly, replayed through the Section 5.1 core
 * over 60 seeds. Two guarantees, each held to a stated binomial
 * tolerance of 4 standard deviations:
 *  - the pooled correct fraction is at least C;
 *  - the bound frozen at each run's last epoch lies at or above the
 *    true 0.95 quantile in at least a fraction C of the runs — the
 *    confidence statement itself, checked against the exact quantile.
 */
TEST_P(ExactQuantileOracle, BmbpCoversTheTrueQuantile)
{
    const ExactCase &params = GetParam();
    const double q = 0.95;
    const double confidence = 0.95;
    const size_t seeds = 60;
    const size_t jobs = 1000;
    const double true_quantile = params.quantile(q);

    size_t evaluated = 0, correct = 0, covering_runs = 0;
    for (uint64_t seed = 1; seed <= seeds; ++seed) {
        stats::Rng rng(seed);
        trace::Trace t;
        for (size_t i = 0; i < jobs; ++i) {
            trace::JobRecord job;
            job.submitTime = 60.0 * static_cast<double>(i);
            job.waitSeconds = params.quantile(rng.uniform());
            t.add(job);
        }
        core::PredictorOptions options;
        options.quantile = q;
        options.confidence = confidence;
        auto predictor = core::makePredictor("bmbp", options);
        sim::ReplayProbe probe;
        probe.captureSeries = true;
        probe.seriesBegin = 0.0;
        probe.seriesEnd = t[jobs - 1].submitTime;
        sim::ReplaySimulator simulator({300.0, 0.10});
        const auto result = simulator.run(t, *predictor, probe);
        ASSERT_TRUE(result.ok());
        ASSERT_FALSE(result.value().series.empty());
        evaluated += result.value().evaluatedJobs;
        correct += result.value().correct;
        if (result.value().series.back().value >= true_quantile)
            ++covering_runs;
    }

    const double n = static_cast<double>(evaluated);
    const double pooled = static_cast<double>(correct) / n;
    EXPECT_GE(pooled,
              confidence - 4.0 * std::sqrt(confidence * (1 - confidence) / n))
        << params.name;
    const double s = static_cast<double>(seeds);
    EXPECT_GE(static_cast<double>(covering_runs),
              confidence * s -
                  4.0 * std::sqrt(s * confidence * (1 - confidence)))
        << params.name << ": " << covering_runs << "/" << seeds;
}

INSTANTIATE_TEST_SUITE_P(
    Distributions, ExactQuantileOracle,
    ::testing::Values(
        ExactCase{"lognormal",
                  [](double p) {
                      return stats::LogNormalDist(5.0, 1.5).quantile(p);
                  }},
        ExactCase{"gamma",
                  [](double p) {
                      return stats::GammaDist(2.0, 300.0).quantile(p);
                  }},
        ExactCase{"exponential",
                  [](double p) {
                      return stats::ExponentialDist(1.0 / 600.0).quantile(p);
                  }}),
    [](const auto &info) { return std::string(info.param.name); });

/** Bimodal marginals break the parametric baseline but not BMBP —
 *  the paper's central comparison, reproduced on a controlled trace. */
TEST(PipelineContrast, BimodalBreaksLogNormalNotBmbp)
{
    auto t = makeTrace(3, 0.3, 30000, 21);
    core::PredictorOptions options;
    auto bmbp = sim::evaluateTrace(t, "bmbp", options);
    auto logn = sim::evaluateTrace(t, "lognormal", options);
    EXPECT_GE(bmbp.correctFraction, 0.945);
    EXPECT_LT(logn.correctFraction, 0.945);
}

/** Nonstationarity breaks the untrimmed baseline; trimming repairs it. */
TEST(PipelineContrast, TrendBreaksNoTrimTrimRecovers)
{
    stats::Rng rng(31);
    trace::Trace t;
    const size_t count = 30000;
    for (size_t i = 0; i < count; ++i) {
        // Log-normal with discrete upward level steps (the paper's
        // nonstationarity is administrator reconfiguration, i.e. change
        // points, not continuous drift).
        const double level =
            3.0 + 1.0 * static_cast<double>(i / (count / 4));
        trace::JobRecord job;
        job.submitTime = 1000.0 + static_cast<double>(i) * 90.0;
        job.waitSeconds = std::exp(level + 1.0 * rng.normal());
        t.add(job);
    }
    core::PredictorOptions options;
    auto notrim = sim::evaluateTrace(t, "lognormal", options);
    auto trim = sim::evaluateTrace(t, "lognormal-trim", options);
    auto bmbp = sim::evaluateTrace(t, "bmbp", options);
    EXPECT_LT(notrim.correctFraction, 0.945);
    EXPECT_GE(trim.correctFraction, 0.945);
    EXPECT_GE(bmbp.correctFraction, 0.945);
    EXPECT_GT(trim.trims, 0u);
}

} // namespace
} // namespace qdel
