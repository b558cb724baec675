/**
 * @file
 * Unit tests for the descriptive statistics.
 */

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "stats/descriptive.hh"
#include "stats/rng.hh"

namespace qdel {
namespace stats {
namespace {

TEST(Mean, Basics)
{
    EXPECT_DOUBLE_EQ(mean({}), 0.0);
    EXPECT_DOUBLE_EQ(mean({5.0}), 5.0);
    EXPECT_DOUBLE_EQ(mean({1.0, 2.0, 3.0, 4.0}), 2.5);
}

TEST(Variance, BesselCorrected)
{
    EXPECT_DOUBLE_EQ(variance({1.0}), 0.0);
    EXPECT_DOUBLE_EQ(variance({2.0, 4.0}), 2.0);
    EXPECT_DOUBLE_EQ(stddev({2.0, 4.0}), std::sqrt(2.0));
}

TEST(Median, OddAndEven)
{
    EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
    EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
    EXPECT_DOUBLE_EQ(median({7.0}), 7.0);
}

TEST(Quantile, Type7Interpolation)
{
    std::vector<double> sample = {10.0, 20.0, 30.0, 40.0, 50.0};
    EXPECT_DOUBLE_EQ(quantile(sample, 0.0), 10.0);
    EXPECT_DOUBLE_EQ(quantile(sample, 1.0), 50.0);
    EXPECT_DOUBLE_EQ(quantile(sample, 0.5), 30.0);
    EXPECT_DOUBLE_EQ(quantile(sample, 0.25), 20.0);
    EXPECT_DOUBLE_EQ(quantile(sample, 0.1), 14.0);  // interpolated
}

/** The sort-based type-7 quantile, kept as the bit-for-bit reference. */
double
sortedQuantile(std::vector<double> sample, double q)
{
    std::sort(sample.begin(), sample.end());
    const double position = q * static_cast<double>(sample.size() - 1);
    const size_t lower = static_cast<size_t>(position);
    const double frac = position - static_cast<double>(lower);
    if (lower + 1 >= sample.size())
        return sample.back();
    return sample[lower] * (1.0 - frac) + sample[lower + 1] * frac;
}

TEST(Quantile, SelectionMatchesSortedReference)
{
    // Values come from small sets so that ties are heavy: ties are where
    // a selection and a sort leave equal values in different places.
    //
    // Signed zeros compare equal, so neither a sort nor a selection fixes
    // which zero lands at a rank. The mixed families below therefore keep
    // every type-7 answer independent of that placement: either all
    // zeros share one sign, or one lone -0.0 sits among +0.0s and
    // positives, where a * (1 - frac) + b * frac rounds it to +0.0 and
    // q = 1 picks a positive maximum.
    const double qs[] = {0.0, 0.25, 0.5, 0.95, 1.0};
    const double ties[] = {-1.0, 0.0, 0.5, 2.0, 7.25};
    const double lone_neg_zero[] = {0.0, 1.0, 2.0};
    const double neg_zero_only[] = {-3.0, -0.0, 1.0};
    Rng rng(21);
    auto pick = [&rng](const double *set, size_t size) {
        return set[rng.uniformInt(0, static_cast<long long>(size) - 1)];
    };
    for (size_t n = 1; n <= 300; ++n) {
        std::vector<std::vector<double>> samples(3, std::vector<double>(n));
        for (size_t i = 0; i < n; ++i) {
            samples[0][i] = pick(ties, std::size(ties));
            samples[1][i] = pick(lone_neg_zero, std::size(lone_neg_zero));
            samples[2][i] = pick(neg_zero_only, std::size(neg_zero_only));
        }
        if (n > 1)
            samples[1][0] = 3.0;
        samples[1][n / 2] = -0.0;
        for (const std::vector<double> &sample : samples) {
            for (double q : qs) {
                const double want = sortedQuantile(sample, q);
                const double got = quantile(sample, q);
                ASSERT_EQ(std::memcmp(&got, &want, sizeof got), 0)
                    << "n=" << n << " q=" << q << " got " << got
                    << " want " << want;
            }
        }
    }
}

TEST(QuantileDeath, RejectsBadInput)
{
    EXPECT_DEATH(quantile({}, 0.5), "empty");
    EXPECT_DEATH(quantile({1.0}, 1.5), "out of");
}

TEST(Autocorrelation, WhiteNoiseNearZero)
{
    Rng rng(5);
    std::vector<double> series;
    for (int i = 0; i < 50000; ++i)
        series.push_back(rng.normal());
    EXPECT_NEAR(autocorrelation(series, 1), 0.0, 0.02);
}

TEST(Autocorrelation, Ar1RecoversRho)
{
    Rng rng(6);
    const double rho = 0.6;
    std::vector<double> series;
    double z = 0.0;
    for (int i = 0; i < 100000; ++i) {
        z = rho * z + std::sqrt(1 - rho * rho) * rng.normal();
        series.push_back(z);
    }
    EXPECT_NEAR(autocorrelation(series, 1), rho, 0.02);
    EXPECT_NEAR(autocorrelation(series, 2), rho * rho, 0.02);
}

TEST(Autocorrelation, DegenerateInputs)
{
    EXPECT_DOUBLE_EQ(autocorrelation({1.0, 2.0}, 5), 0.0);
    EXPECT_DOUBLE_EQ(autocorrelation({3.0, 3.0, 3.0, 3.0}, 1), 0.0);
}

TEST(Summarize, AllFields)
{
    auto s = summarize({4.0, 1.0, 3.0, 2.0});
    EXPECT_EQ(s.count, 4u);
    EXPECT_DOUBLE_EQ(s.mean, 2.5);
    EXPECT_DOUBLE_EQ(s.median, 2.5);
    EXPECT_DOUBLE_EQ(s.min, 1.0);
    EXPECT_DOUBLE_EQ(s.max, 4.0);
    EXPECT_NEAR(s.stddev, std::sqrt(5.0 / 3.0), 1e-12);
}

TEST(Summarize, Empty)
{
    auto s = summarize({});
    EXPECT_EQ(s.count, 0u);
    EXPECT_DOUBLE_EQ(s.mean, 0.0);
}

TEST(RunningMoments, MatchesBatch)
{
    Rng rng(11);
    RunningMoments moments;
    std::vector<double> sample;
    for (int i = 0; i < 1000; ++i) {
        const double x = rng.logNormal(2.0, 1.0);
        sample.push_back(x);
        moments.push(x);
    }
    EXPECT_EQ(moments.count(), sample.size());
    EXPECT_NEAR(moments.mean(), mean(sample), 1e-9);
    EXPECT_NEAR(moments.variance(), variance(sample), 1e-6);
}

TEST(RunningMoments, Clear)
{
    RunningMoments moments;
    moments.push(1.0);
    moments.push(5.0);
    moments.clear();
    EXPECT_EQ(moments.count(), 0u);
    EXPECT_DOUBLE_EQ(moments.variance(), 0.0);
}

} // namespace
} // namespace stats
} // namespace qdel
