/**
 * @file
 * Tests for the one-sided normal tolerance factor (Guttman's K', the
 * paper's log-normal baseline machinery) against published table
 * values and a direct Monte Carlo coverage check, and of the
 * process-wide memo behind normalToleranceFactor().
 */

#include <cmath>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "stats/descriptive.hh"
#include "stats/rng.hh"
#include "serve/bound_registry.hh"
#include "stats/tolerance.hh"

namespace qdel {
namespace stats {
namespace {

TEST(ToleranceFactor, PublishedTableValues)
{
    // One-sided k for coverage p = .95 at confidence .95 (standard
    // tolerance-limit tables, e.g. Hahn & Meeker / NIST).
    EXPECT_NEAR(normalToleranceFactorExact(10, 0.95, 0.95), 2.911, 2e-3);
    EXPECT_NEAR(normalToleranceFactorExact(20, 0.95, 0.95), 2.396, 2e-3);
    EXPECT_NEAR(normalToleranceFactorExact(30, 0.95, 0.95), 2.220, 2e-3);
    EXPECT_NEAR(normalToleranceFactorExact(50, 0.95, 0.95), 2.065, 2e-3);
    EXPECT_NEAR(normalToleranceFactorExact(100, 0.95, 0.95), 1.927, 2e-3);
    // p = .90 / C = .95 spot checks.
    EXPECT_NEAR(normalToleranceFactorExact(10, 0.90, 0.95), 2.355, 2e-3);
    EXPECT_NEAR(normalToleranceFactorExact(50, 0.90, 0.95), 1.646, 2e-3);
}

TEST(ToleranceFactor, ApproximationAgreesWithExact)
{
    for (size_t n : {30u, 60u, 120u, 300u}) {
        const double exact = normalToleranceFactorExact(n, 0.95, 0.95);
        const double approx = normalToleranceFactorApprox(n, 0.95, 0.95);
        EXPECT_NEAR(approx, exact, 0.01 * exact) << "n=" << n;
    }
}

TEST(ToleranceFactor, ConvergesToZq)
{
    // k -> z_.95 = 1.645 as n grows.
    const double large = normalToleranceFactor(1000000, 0.95, 0.95);
    EXPECT_NEAR(large, 1.6449, 5e-3);
    // And decreases monotonically in n.
    double previous = 1e9;
    for (size_t n : {5u, 10u, 50u, 500u, 5000u}) {
        const double k = normalToleranceFactor(n, 0.95, 0.95);
        EXPECT_LT(k, previous);
        previous = k;
    }
}

TEST(ToleranceFactor, MonotoneInConfidenceAndQuantile)
{
    EXPECT_LT(normalToleranceFactorExact(40, 0.95, 0.90),
              normalToleranceFactorExact(40, 0.95, 0.99));
    EXPECT_LT(normalToleranceFactorExact(40, 0.90, 0.95),
              normalToleranceFactorExact(40, 0.99, 0.95));
}

/**
 * Direct semantics check: m + k s covers the true .95 quantile of a
 * normal population in ~95% of repeated samples.
 */
TEST(ToleranceFactor, MonteCarloCoverage)
{
    const size_t n = 59;  // the paper's trimmed history length
    const double k = normalToleranceFactorExact(n, 0.95, 0.95);
    const double true_q95 = 1.6448536269514722;

    Rng rng(31337);
    const int experiments = 4000;
    int covered = 0;
    for (int e = 0; e < experiments; ++e) {
        RunningMoments moments;
        for (size_t i = 0; i < n; ++i)
            moments.push(rng.normal());
        if (moments.mean() + k * moments.sd() >= true_q95)
            ++covered;
    }
    const double rate =
        static_cast<double>(covered) / static_cast<double>(experiments);
    EXPECT_NEAR(rate, 0.95, 0.015);
}

/**
 * The memo returns exactly the bits of the exact factor for n <= 300
 * and of the closed form beyond, on a miss and on the hit that
 * follows. The quantiles are the ones callers use: the paper's .95,
 * its complement, and the served grid with each point's 1-q (so 0.05
 * and 1 - 0.95, which differ in the last bits, are both keys).
 */
TEST(ToleranceFactor, MemoMatchesExactAndApproxBitForBit)
{
    std::vector<double> quantiles = {0.95, 0.05};
    for (double q : serve::kGridQuantiles) {
        quantiles.push_back(q);
        quantiles.push_back(1.0 - q);
    }
    std::vector<size_t> sizes;
    for (size_t n = 2; n <= 300; ++n)
        sizes.push_back(n);
    for (size_t n : {301u, 1000u, 1000000u})
        sizes.push_back(n);

    for (double confidence : {0.90, 0.95, 0.99}) {
        for (double q : quantiles) {
            for (size_t n : sizes) {
                const double expected =
                    n <= 300 ? normalToleranceFactorExact(n, q, confidence)
                             : normalToleranceFactorApprox(n, q, confidence);
                const double miss = normalToleranceFactor(n, q, confidence);
                const double hit = normalToleranceFactor(n, q, confidence);
                ASSERT_EQ(std::memcmp(&miss, &expected, sizeof expected), 0)
                    << "n=" << n << " q=" << q << " C=" << confidence;
                ASSERT_EQ(std::memcmp(&hit, &expected, sizeof expected), 0)
                    << "n=" << n << " q=" << q << " C=" << confidence;
            }
        }
    }
}

} // namespace
} // namespace stats
} // namespace qdel
