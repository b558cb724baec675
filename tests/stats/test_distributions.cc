/**
 * @file
 * Unit tests for the distribution objects, including Monte Carlo
 * validation of the noncentral t CDF (the backbone of the paper's K'
 * tolerance bounds).
 */

#include <cmath>

#include <gtest/gtest.h>

#include "stats/distributions.hh"
#include "stats/rng.hh"

namespace qdel {
namespace stats {
namespace {

TEST(NormalDist, CdfQuantileRoundTrip)
{
    NormalDist dist(10.0, 3.0);
    EXPECT_NEAR(dist.cdf(10.0), 0.5, 1e-12);
    EXPECT_NEAR(dist.cdf(13.0), 0.8413447460685429, 1e-10);
    for (double p : {0.01, 0.25, 0.5, 0.9, 0.999})
        EXPECT_NEAR(dist.cdf(dist.quantile(p)), p, 1e-10);
}

TEST(LogNormalDist, Moments)
{
    LogNormalDist dist(1.0, 0.5);
    EXPECT_NEAR(dist.median(), std::exp(1.0), 1e-12);
    EXPECT_NEAR(dist.mean(), std::exp(1.125), 1e-12);
    EXPECT_NEAR(dist.variance(),
                (std::exp(0.25) - 1.0) * std::exp(2.25), 1e-10);
}

TEST(LogNormalDist, FromMeanMedian)
{
    // The calibration identity used to match the paper's Table 1.
    auto dist = LogNormalDist::fromMeanMedian(35886.0, 1795.0);
    EXPECT_NEAR(dist.median(), 1795.0, 1e-6);
    EXPECT_NEAR(dist.mean(), 35886.0, 1.0);
}

TEST(LogNormalDist, FromMeanMedianDegenerate)
{
    // mean <= median clamps instead of producing NaN (lanl/schammpq).
    auto dist = LogNormalDist::fromMeanMedian(7955.0, 8450.0);
    EXPECT_NEAR(dist.median(), 8450.0, 1e-6);
    EXPECT_GT(dist.sigma(), 0.0);
    EXPECT_TRUE(std::isfinite(dist.mean()));
}

TEST(LogNormalDist, CdfQuantile)
{
    LogNormalDist dist(2.0, 1.5);
    EXPECT_DOUBLE_EQ(dist.cdf(0.0), 0.0);
    EXPECT_NEAR(dist.cdf(dist.median()), 0.5, 1e-12);
    for (double p : {0.05, 0.5, 0.95})
        EXPECT_NEAR(dist.cdf(dist.quantile(p)), p, 1e-10);
}

TEST(StudentT, KnownValues)
{
    // t_{0.975, nu} critical values (standard tables).
    EXPECT_NEAR(StudentTDist(1).quantile(0.975), 12.706, 2e-3);
    EXPECT_NEAR(StudentTDist(5).quantile(0.975), 2.5706, 2e-4);
    EXPECT_NEAR(StudentTDist(30).quantile(0.975), 2.0423, 2e-4);
    EXPECT_NEAR(StudentTDist(10).quantile(0.95), 1.8125, 2e-4);
}

TEST(StudentT, SymmetryAndCenter)
{
    StudentTDist dist(7);
    EXPECT_DOUBLE_EQ(dist.cdf(0.0), 0.5);
    EXPECT_NEAR(dist.cdf(1.3) + dist.cdf(-1.3), 1.0, 1e-12);
    EXPECT_NEAR(dist.quantile(0.5), 0.0, 1e-9);
}

TEST(StudentT, ApproachesNormalForLargeNu)
{
    StudentTDist dist(10000);
    EXPECT_NEAR(dist.quantile(0.975), 1.95996, 1e-3);
}

TEST(NoncentralT, ReducesToCentralTAtZeroDelta)
{
    NoncentralTDist nct(8, 0.0);
    StudentTDist t(8);
    for (double x : {-2.0, -0.5, 0.0, 1.0, 3.0})
        EXPECT_NEAR(nct.cdf(x), t.cdf(x), 1e-9) << "x=" << x;
}

TEST(NoncentralT, BasicProperties)
{
    NoncentralTDist nct(10, 2.0);
    // CDF at t = delta is a bit below 1/2 for nu finite... it must at
    // least be monotone and within [0,1].
    double previous = 0.0;
    for (double x = -5.0; x <= 15.0; x += 0.25) {
        const double value = nct.cdf(x);
        EXPECT_GE(value, previous - 1e-12);
        EXPECT_GE(value, 0.0);
        EXPECT_LE(value, 1.0);
        previous = value;
    }
    // P(T <= 0) = Phi(-delta) exactly.
    EXPECT_NEAR(nct.cdf(0.0), 0.022750131948179195, 1e-10);
}

/**
 * Monte Carlo cross-check of the AS 243 series: T = (Z + delta) /
 * sqrt(ChiSq_nu / nu) sampled directly.
 */
class NoncentralTMonteCarlo
    : public ::testing::TestWithParam<std::tuple<double, double>>
{
};

TEST_P(NoncentralTMonteCarlo, CdfMatchesSampling)
{
    const double nu = std::get<0>(GetParam());
    const double delta = std::get<1>(GetParam());
    NoncentralTDist nct(nu, delta);

    Rng rng(4242);
    const int samples = 200000;
    const double probe = nct.quantile(0.9);
    int below = 0;
    for (int i = 0; i < samples; ++i) {
        double chisq = 0.0;
        // nu integral in this test; sum of squared normals.
        for (int d = 0; d < static_cast<int>(nu); ++d) {
            const double z = rng.normal();
            chisq += z * z;
        }
        const double t = (rng.normal() + delta) / std::sqrt(chisq / nu);
        if (t <= probe)
            ++below;
    }
    const double empirical =
        static_cast<double>(below) / static_cast<double>(samples);
    // Monte Carlo tolerance ~ 4 sigma of a binomial proportion.
    EXPECT_NEAR(empirical, 0.9, 4.0 * std::sqrt(0.9 * 0.1 / samples));
}

INSTANTIATE_TEST_SUITE_P(
    GridOfParameters, NoncentralTMonteCarlo,
    ::testing::Values(std::make_tuple(5.0, 1.0),
                      std::make_tuple(10.0, 5.2),
                      std::make_tuple(30.0, -2.0),
                      std::make_tuple(58.0, 12.63),  // n=59 tolerance case
                      std::make_tuple(120.0, 18.0)));

TEST(NoncentralT, LargeNoncentralityStaysFinite)
{
    // n = 350k in the predictor implies delta ~ 973; the outward
    // summation must not underflow.
    const double n = 350000.0;
    const double delta = 1.6448536269514722 * std::sqrt(n);
    NoncentralTDist nct(n - 1.0, delta);
    const double value = nct.cdf(delta * 1.001);
    EXPECT_GT(value, 0.5);
    EXPECT_LT(value, 1.0);
    EXPECT_TRUE(std::isfinite(nct.quantile(0.95)));
}

TEST(Exponential, CdfQuantile)
{
    ExponentialDist dist(0.5);
    EXPECT_NEAR(dist.mean(), 2.0, 1e-12);
    EXPECT_NEAR(dist.cdf(2.0), 1.0 - std::exp(-1.0), 1e-12);
    for (double p : {0.1, 0.5, 0.99})
        EXPECT_NEAR(dist.cdf(dist.quantile(p)), p, 1e-12);
}

TEST(Weibull, CdfQuantile)
{
    WeibullDist dist(1.5, 100.0);
    EXPECT_DOUBLE_EQ(dist.cdf(0.0), 0.0);
    for (double p : {0.05, 0.5, 0.95})
        EXPECT_NEAR(dist.cdf(dist.quantile(p)), p, 1e-12);
    // Shape 1 reduces to an exponential.
    WeibullDist expo(1.0, 2.0);
    EXPECT_NEAR(expo.cdf(2.0), 1.0 - std::exp(-1.0), 1e-12);
}

TEST(Gamma, CdfQuantile)
{
    GammaDist dist(2.0, 1.0);
    EXPECT_DOUBLE_EQ(dist.cdf(0.0), 0.0);
    // Erlang(2): F(x) = 1 - (1 + x) e^-x; its median is 1.67834699...
    EXPECT_NEAR(dist.cdf(1.5), 1.0 - 2.5 * std::exp(-1.5), 1e-12);
    EXPECT_NEAR(dist.quantile(0.5), 1.6783469900166608, 1e-9);
    for (double p : {0.05, 0.5, 0.95, 0.999})
        EXPECT_NEAR(dist.cdf(dist.quantile(p)), p, 1e-12);
    // Shape 1 reduces to an exponential with rate 1/scale.
    GammaDist expo(1.0, 4.0);
    EXPECT_NEAR(expo.quantile(0.95), ExponentialDist(0.25).quantile(0.95),
                1e-9);
}

TEST(Pareto, CdfQuantile)
{
    ParetoDist dist(1.0, 1.16);  // the "80-20" tail index
    EXPECT_DOUBLE_EQ(dist.cdf(1.0), 0.0);
    EXPECT_NEAR(dist.cdf(2.0), 1.0 - std::pow(0.5, 1.16), 1e-12);
    for (double p : {0.1, 0.5, 0.99})
        EXPECT_NEAR(dist.cdf(dist.quantile(p)), p, 1e-12);
}

} // namespace
} // namespace stats
} // namespace qdel
