/**
 * @file
 * Tests for the synthetic trace generator: calibration identities,
 * regime schedules, determinism, and the paper-specific behaviours
 * (Table 5 cell population, the Figure 2 inversion, the lanl/short
 * terminal burst).
 */

#include <cmath>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "stats/descriptive.hh"
#include "stats/distributions.hh"
#include "workload/site_catalog.hh"
#include "workload/synthesizer.hh"

namespace qdel {
namespace workload {
namespace {

TEST(CalibrateMixture, MildMatchesMedianAndMean)
{
    // Verify the closed-form calibration against the mixture's exact
    // analytic median/mean.
    const auto &profile = findProfile("datastar", "normal");
    const auto cal = calibrateMixture(profile);
    ASSERT_GT(cal.fastWeight, 0.0);

    // Analytic mean of the mixture:
    const double e1 = std::exp(cal.mu1 + 0.5 * cal.sigma1 * cal.sigma1);
    const double e2 = std::exp(cal.mu2 + 0.5 * cal.sigma2 * cal.sigma2);
    const double mean = cal.fastWeight * e1 +
                        (1.0 - cal.fastWeight) * e2;
    EXPECT_NEAR(mean, profile.meanDelay, 0.05 * profile.meanDelay);

    // Median: w F1(M) + (1-w) F2(M) ~ 0.5 at the published median.
    stats::NormalDist mode1(cal.mu1, cal.sigma1);
    stats::NormalDist mode2(cal.mu2, cal.sigma2);
    const double log_median = std::log(profile.medianDelay);
    const double cdf_at_median =
        cal.fastWeight * mode1.cdf(log_median) +
        (1.0 - cal.fastWeight) * mode2.cdf(log_median);
    EXPECT_NEAR(cdf_at_median, 0.5, 0.03);
}

TEST(CalibrateMixture, StrongMedianInFastMode)
{
    const auto &profile = findProfile("lanl", "shared");
    const auto cal = calibrateMixture(profile);
    EXPECT_GT(cal.fastWeight, 0.5);
    // Median identity: w F1(M) = 0.5.
    stats::NormalDist mode1(cal.mu1, cal.sigma1);
    EXPECT_NEAR(cal.fastWeight *
                    mode1.cdf(std::log(profile.medianDelay)),
                0.5, 0.02);
    // Congestion mode is far slower than the fast mode.
    EXPECT_GT(cal.mu2, cal.mu1 + 2.0);
}

TEST(CalibrateMixture, NoneUsesThinExtremeTail)
{
    const auto &profile = findProfile("nersc", "regular");
    const auto cal = calibrateMixture(profile);
    EXPECT_DOUBLE_EQ(cal.fastWeight, 0.0);
    ASSERT_GT(cal.tailWeight, 0.0);
    EXPECT_LE(cal.tailWeight, 0.05);
    // The tail carries the mean: its expectation dwarfs the bulk's.
    const double e_bulk = std::exp(cal.mu2 + 0.5 * cal.sigma2 * cal.sigma2);
    const double e_tail = std::exp(cal.muT + 0.5 * cal.sigmaT * cal.sigmaT);
    EXPECT_GT(e_tail, 10.0 * e_bulk);
}

TEST(CalibrateMixture, NearSymmetricQueueDegeneratesGracefully)
{
    // lanl/schammpq has mean < median; calibration must not produce a
    // degenerate or inverted mixture.
    const auto &profile = findProfile("lanl", "schammpq");
    const auto cal = calibrateMixture(profile);
    EXPECT_DOUBLE_EQ(cal.fastWeight, 0.0);
    EXPECT_DOUBLE_EQ(cal.tailWeight, 0.0);
    EXPECT_GT(cal.sigma2, 0.1);
    EXPECT_NEAR(std::exp(cal.mu2), profile.medianDelay,
                0.01 * profile.medianDelay);
}

TEST(RegimeSchedule, CoversAllJobsInOrder)
{
    const auto &profile = findProfile("datastar", "normal");
    stats::Rng rng(3);
    auto schedule = makeRegimeSchedule(profile, 10000, rng);
    ASSERT_EQ(schedule.size(),
              static_cast<size_t>(profile.regimeCount));
    EXPECT_EQ(schedule.front().startIndex, 0u);
    for (size_t i = 1; i < schedule.size(); ++i)
        EXPECT_GE(schedule[i].startIndex, schedule[i - 1].startIndex);
    EXPECT_LE(schedule.back().startIndex, 10000u);
}

TEST(RegimeSchedule, OffsetsAreJobWeightedCentered)
{
    const auto &profile = findProfile("nersc", "regular");
    stats::Rng rng(4);
    const size_t jobs = 50000;
    auto schedule = makeRegimeSchedule(profile, jobs, rng);
    double weighted = 0.0;
    for (size_t s = 0; s < schedule.size(); ++s) {
        const size_t end = s + 1 < schedule.size()
                               ? schedule[s + 1].startIndex
                               : jobs;
        weighted += schedule[s].muOffset *
                    static_cast<double>(end - schedule[s].startIndex);
    }
    EXPECT_NEAR(weighted / static_cast<double>(jobs), 0.0, 1e-9);
}

TEST(ProfileSeed, StablePerQueueDistinctAcrossQueues)
{
    const auto &a = findProfile("datastar", "normal");
    const auto &b = findProfile("datastar", "express");
    EXPECT_EQ(profileSeed(a, 1), profileSeed(a, 1));
    EXPECT_NE(profileSeed(a, 1), profileSeed(b, 1));
    EXPECT_NE(profileSeed(a, 1), profileSeed(a, 2));
}

TEST(Synthesize, Deterministic)
{
    const auto &profile = findProfile("paragon", "q256s");
    auto a = synthesizeTrace(profile);
    auto b = synthesizeTrace(profile);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        ASSERT_DOUBLE_EQ(a[i].submitTime, b[i].submitTime);
        ASSERT_DOUBLE_EQ(a[i].waitSeconds, b[i].waitSeconds);
        ASSERT_EQ(a[i].procs, b[i].procs);
    }
}

TEST(Synthesize, JobCountSpanAndQueueName)
{
    const auto &profile = findProfile("sdsc", "express");
    auto t = synthesizeTrace(profile);
    ASSERT_EQ(t.size(), static_cast<size_t>(profile.jobCount));
    EXPECT_TRUE(t.isSorted());
    const double begin =
        monthStartUnix(profile.startYear, profile.startMonth);
    EXPECT_GE(t[0].submitTime, begin);
    for (const auto &job : t)
        ASSERT_EQ(job.queue, profile.queue);
}

/** Table 1 reproduction: medians and means land near the published
 *  values across representative rows of each class. The parameter
 *  holds std::string (not const char *) so gtest prints the names
 *  rather than literal addresses, keeping test names stable. */
using SiteQueue = std::pair<std::string, std::string>;

class TableOneCalibration : public ::testing::TestWithParam<SiteQueue>
{
};

TEST_P(TableOneCalibration, MedianAndMeanNearPublished)
{
    const auto &[site, queue] = GetParam();
    const auto &profile = findProfile(site, queue);
    auto summary = synthesizeTrace(profile).summary();
    // Median within a factor of 2.5 and mean within a factor of 3
    // (the nonstationary regime structure moves both; the paper's own
    // replication tolerance is qualitative).
    const double median_target = std::max(profile.medianDelay, 1.0);
    EXPECT_GT(summary.median, median_target / 2.5) << site << "/" << queue;
    EXPECT_LT(summary.median, median_target * 2.5) << site << "/" << queue;
    EXPECT_GT(summary.mean, profile.meanDelay / 3.0);
    EXPECT_LT(summary.mean, profile.meanDelay * 3.0);
}

INSTANTIATE_TEST_SUITE_P(
    RepresentativeQueues, TableOneCalibration,
    ::testing::Values(SiteQueue{"llnl", "all"},
                      SiteQueue{"nersc", "regular"},
                      SiteQueue{"tacc2", "normal"},
                      SiteQueue{"lanl", "shared"},
                      SiteQueue{"datastar", "express"},
                      SiteQueue{"sdsc", "high"},
                      SiteQueue{"paragon", "standby"}),
    [](const auto &info) {
        return info.param.first + "_" + info.param.second;
    });

TEST(Synthesize, TableFiveCellPopulation)
{
    // Cells the paper reports have >= 1000 jobs; dropped cells fewer.
    const auto &profile = findProfile("datastar", "normal");
    auto t = synthesizeTrace(profile);
    const trace::ProcRange *bins = trace::paperProcRanges();
    EXPECT_GE(t.filterByProcRange(bins[0]).size(), 1000u);
    EXPECT_GE(t.filterByProcRange(bins[1]).size(), 1000u);
    EXPECT_GE(t.filterByProcRange(bins[2]).size(), 1000u);
    EXPECT_LT(t.filterByProcRange(bins[3]).size(), 1000u);
}

TEST(Synthesize, Figure2WindowFavorsLargeJobs)
{
    // June 2004, datastar/normal: 17-64 processor jobs wait *less*
    // than 1-4 processor jobs (the paper's surprising observation).
    const auto &profile = findProfile("datastar", "normal");
    auto t = synthesizeTrace(profile);
    auto june = t.filterByTime(dateUnix(2004, 6, 1), dateUnix(2004, 7, 1));
    const trace::ProcRange *bins = trace::paperProcRanges();
    auto small_jobs = june.filterByProcRange(bins[0]).waitTimes();
    auto large_jobs = june.filterByProcRange(bins[2]).waitTimes();
    ASSERT_GT(small_jobs.size(), 50u);
    ASSERT_GT(large_jobs.size(), 50u);
    EXPECT_LT(stats::quantile(large_jobs, 0.95) * 5.0,
              stats::quantile(small_jobs, 0.95));
}

TEST(Synthesize, TerminalBurstRaisesTailDelays)
{
    const auto &profile = findProfile("lanl", "short");
    auto t = synthesizeTrace(profile);
    const size_t n = t.size();
    std::vector<double> head, tail;
    for (size_t i = 0; i < n; ++i) {
        if (i < static_cast<size_t>(0.80 * n))
            head.push_back(t[i].waitSeconds);
        else if (i >= static_cast<size_t>(0.95 * n))
            tail.push_back(t[i].waitSeconds);
    }
    EXPECT_GT(stats::median(tail), 20.0 * stats::median(head));
}

} // namespace
} // namespace workload
} // namespace qdel
