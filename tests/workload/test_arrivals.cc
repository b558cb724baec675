/**
 * @file
 * Unit tests for the cyclic arrival generator.
 */

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "persist/io.hh"
#include "workload/arrivals.hh"
#include "workload/site_catalog.hh"
#include "workload/stream_synth.hh"
#include "workload/synthesizer.hh"

namespace qdel {
namespace workload {
namespace {

TEST(Arrivals, ExactCountSortedInRange)
{
    stats::Rng rng(1);
    ArrivalModel model;
    const double begin = 1000.0;
    const double end = begin + 30.0 * 86400.0;
    auto arrivals = generateArrivals(begin, end, 5000, model, rng);
    ASSERT_EQ(arrivals.size(), 5000u);
    EXPECT_TRUE(std::is_sorted(arrivals.begin(), arrivals.end()));
    EXPECT_GE(arrivals.front(), begin);
    EXPECT_LT(arrivals.back(), end);
}

TEST(Arrivals, ZeroCount)
{
    stats::Rng rng(2);
    EXPECT_TRUE(generateArrivals(0.0, 100.0, 0, {}, rng).empty());
}

TEST(Arrivals, DiurnalPeakIsRespected)
{
    // Peak-hour buckets should receive clearly more arrivals than
    // off-peak buckets over many days.
    stats::Rng rng(3);
    ArrivalModel model;
    model.diurnalAmplitude = 0.8;
    model.weekendFactor = 1.0;  // isolate the daily cycle
    const double begin = monthStartUnix(2004, 4);
    const double end = begin + 60.0 * 86400.0;
    auto arrivals = generateArrivals(begin, end, 120000, model, rng);

    size_t peak = 0, trough = 0;
    for (double t : arrivals) {
        const double hour = std::fmod(t, 86400.0) / 3600.0;
        if (std::fabs(hour - model.peakHour) < 2.0)
            ++peak;
        const double anti = std::fmod(model.peakHour + 12.0, 24.0);
        if (std::fabs(hour - anti) < 2.0)
            ++trough;
    }
    EXPECT_GT(static_cast<double>(peak),
              2.0 * static_cast<double>(trough));
}

TEST(Arrivals, WeekendsQuieter)
{
    stats::Rng rng(4);
    ArrivalModel model;
    model.diurnalAmplitude = 0.0;  // isolate the weekly cycle
    model.weekendFactor = 0.4;
    const double begin = monthStartUnix(2004, 4);
    const double end = begin + 70.0 * 86400.0;  // 10 full weeks
    auto arrivals = generateArrivals(begin, end, 70000, model, rng);

    size_t weekend = 0;
    for (double t : arrivals) {
        const long long day =
            static_cast<long long>(std::floor(t / 86400.0));
        const long long weekday = ((day % 7) + 7) % 7;
        if (weekday == 2 || weekday == 3)  // Sat/Sun from Thursday epoch
            ++weekend;
    }
    // Expected weekend share = 2*0.4 / (5 + 2*0.4) ~ 0.138.
    const double share =
        static_cast<double>(weekend) / static_cast<double>(arrivals.size());
    EXPECT_NEAR(share, 0.8 / 5.8, 0.015);
}

TEST(Arrivals, IntensityPositiveEverywhere)
{
    ArrivalModel model;
    for (double t = 0.0; t < 14.0 * 86400.0; t += 3600.0)
        EXPECT_GT(arrivalIntensity(model, t), 0.0);
}

TEST(ArrivalsDeath, EmptySpan)
{
    stats::Rng rng(5);
    EXPECT_DEATH(generateArrivals(10.0, 10.0, 5, {}, rng), "empty span");
}

// ---------------------------------------------------------------------
// Parity with the plain inversion: a binary search per draw over the
// hourly table, then one full sort. Every arrival must be the same
// double, so the comparisons are memcmp, not tolerances.

/** The hourly cumulative-mass table, built as ArrivalTable builds it. */
struct PlainTable
{
    double begin;
    double width;
    std::vector<double> cumulative;

    PlainTable(double b, double end, const ArrivalModel &model) : begin(b)
    {
        const double span = end - begin;
        const size_t buckets = std::max<size_t>(
            1, static_cast<size_t>(std::ceil(span / 3600.0)));
        width = span / static_cast<double>(buckets);
        cumulative.assign(buckets + 1, 0.0);
        for (size_t i = 0; i < buckets; ++i) {
            const double mid =
                begin + (static_cast<double>(i) + 0.5) * width;
            cumulative[i + 1] =
                cumulative[i] + arrivalIntensity(model, mid) * width;
        }
    }

    size_t
    bucketOf(double target) const
    {
        const auto it = std::upper_bound(cumulative.begin(),
                                         cumulative.end(), target);
        size_t b = static_cast<size_t>(it - cumulative.begin());
        b = b == 0 ? 0 : b - 1;
        return std::min(b, cumulative.size() - 2);
    }

    double
    at(double u) const
    {
        const double target = u * cumulative.back();
        const size_t b = bucketOf(target);
        const double mass = cumulative[b + 1] - cumulative[b];
        const double frac =
            mass > 0.0 ? (target - cumulative[b]) / mass : 0.5;
        return begin + (static_cast<double>(b) + frac) * width;
    }
};

std::vector<double>
plainArrivals(double begin, double end, size_t count,
              const ArrivalModel &model, stats::Rng &rng)
{
    const PlainTable table(begin, end, model);
    std::vector<double> arrivals;
    arrivals.reserve(count);
    for (size_t i = 0; i < count; ++i)
        arrivals.push_back(table.at(rng.uniform()));
    std::sort(arrivals.begin(), arrivals.end());
    return arrivals;
}

bool
sameBits(const std::vector<double> &a, const std::vector<double> &b)
{
    return a.size() == b.size() &&
           (a.empty() ||
            std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

/** Catalog spans plus a few hand-made ones, including one bucket. */
std::vector<TimeSpan>
paritySpans()
{
    std::vector<TimeSpan> spans;
    for (const char *queue : {"normal", "TGhigh"})
        spans.push_back(profileSpan(findProfile("datastar", queue)));
    spans.push_back(profileSpan(findProfile("lanl", "shared")));
    spans.push_back(profileSpan(findProfile("paragon", "q256s")));
    spans.push_back(profileSpan(findProfile("nersc", "regular")));
    spans.push_back({1000.0, 1000.0 + 30.0 * 86400.0});
    spans.push_back({0.0, 3600.0});        // exactly one bucket
    spans.push_back({5000.0, 5000.5});     // less than one bucket
    spans.push_back({-7200.0, 1.0e6 + 0.3});  // ragged, before the epoch
    // Ragged: under a flat intensity, a target one ulp below a bucket
    // edge here rounds into the next guide slice.
    spans.push_back({0.0, 86744.5});
    return spans;
}

TEST(ArrivalParity, GenerateMatchesBinarySearchAndFullSort)
{
    const ArrivalModel model;
    for (const TimeSpan &span : paritySpans()) {
        for (size_t count : {0, 1, 2, 100000}) {
            for (uint64_t seed : {1, 7, 8}) {
                stats::Rng fast_rng(seed);
                stats::Rng plain_rng(seed);
                const auto fast =
                    generateArrivals(span.begin, span.end, count, model,
                                     fast_rng);
                const auto plain = plainArrivals(span.begin, span.end,
                                                 count, model, plain_rng);
                EXPECT_TRUE(sameBits(fast, plain))
                    << "span [" << span.begin << ", " << span.end
                    << ") count " << count << " seed " << seed;
                // Both consumed one uniform per draw.
                EXPECT_EQ(fast_rng.uniform(), plain_rng.uniform());
            }
        }
    }
}

TEST(ArrivalParity, NonDefaultModelsMatch)
{
    // A zero-intensity trough (amplitude 1) leaves near-empty buckets.
    ArrivalModel flat_trough;
    flat_trough.diurnalAmplitude = 1.0;
    flat_trough.weekendFactor = 1e-3;
    ArrivalModel flat;
    flat.diurnalAmplitude = 0.0;
    flat.weekendFactor = 1.0;
    for (const ArrivalModel &model : {flat_trough, flat}) {
        stats::Rng fast_rng(3);
        stats::Rng plain_rng(3);
        const TimeSpan span = profileSpan(findProfile("sdsc", "normal"));
        EXPECT_TRUE(sameBits(
            generateArrivals(span.begin, span.end, 50000, model, fast_rng),
            plainArrivals(span.begin, span.end, 50000, model, plain_rng)));
    }
}

TEST(ArrivalParity, BucketOfMatchesUpperBoundAtEveryEdge)
{
    // Targets sitting exactly on, and one ulp either side of, every
    // bucket edge, plus the out-of-range ones. Under a flat intensity
    // the bucket edges are also the guide's slice edges, so a target
    // one ulp below an edge can round into the next slice and start
    // the walk one bucket too high (it must walk down).
    ArrivalModel flat;
    flat.diurnalAmplitude = 0.0;
    flat.weekendFactor = 1.0;
    for (const ArrivalModel &model : {ArrivalModel{}, flat}) {
        for (const TimeSpan &span : paritySpans()) {
            const ArrivalTable table(span.begin, span.end, model);
            const PlainTable plain(span.begin, span.end, model);
            ASSERT_EQ(table.buckets(), plain.cumulative.size() - 1);
            ASSERT_EQ(table.total(), plain.cumulative.back());
            const double inf = std::numeric_limits<double>::infinity();
            std::vector<double> targets = {
                -inf, -1.0, -0.0, 0.0, table.total() * 2.0, inf,
                std::numeric_limits<double>::quiet_NaN()};
            for (double edge : plain.cumulative) {
                targets.push_back(edge);
                targets.push_back(std::nextafter(edge, -inf));
                targets.push_back(std::nextafter(edge, inf));
            }
            for (double target : targets)
                ASSERT_EQ(table.bucketOf(target), plain.bucketOf(target))
                    << "target " << target;
        }
    }
}

TEST(ArrivalParity, StreamingInversionMatchesBinarySearch)
{
    // StreamingSynthesizer maps its sorted uniforms through the same
    // table; replay its uniform recurrence from its own arrival stream
    // and invert each one by binary search.
    constexpr uint64_t kArrivalStreamSalt = 0x9e3779b97f4a7c15ull;
    for (const char *queue : {"normal", "express"}) {
        const auto &profile = findProfile("datastar", queue);
        const TimeSpan span = profileSpan(profile);
        const PlainTable plain(span.begin, span.end, ArrivalModel{});
        for (uint64_t seed : {1, 7, 8}) {
            StreamSynthOptions options;
            options.baseSeed = seed;
            options.jobCountOverride = 20000;
            StreamingSynthesizer synth(profile, options);
            stats::Rng uniforms(profileSeed(profile, seed) ^
                                kArrivalStreamSalt);
            std::vector<double> streamed;
            std::vector<double> expected;
            double u = 0.0;
            trace::JobRecord job;
            while (synth.next(&job)) {
                const size_t left = options.jobCountOverride - expected.size();
                const double v = std::max(uniforms.uniform(), 1e-300);
                u += (1.0 - u) * (-std::expm1(std::log(v) /
                                              static_cast<double>(left)));
                u = std::min(u, 1.0);
                expected.push_back(plain.at(u));
                streamed.push_back(job.submitTime);
            }
            EXPECT_TRUE(sameBits(streamed, expected))
                << profile.queue << " seed " << seed;
        }
    }
}

TEST(ArrivalParity, SynthesizedTraceBitsPinned)
{
    // CRC-32 over each job's (submit, wait, procs) bytes at seed 1,
    // computed with the binary-search-and-sort generator. A change to
    // any synthesized double moves it.
    struct Pin
    {
        const char *site;
        const char *queue;
        size_t jobs;
        uint32_t crc;
    };
    for (const Pin &pin : {Pin{"lanl", "shared", 35510, 0xF3415C9Fu},
                           Pin{"datastar", "normal", 48543, 0x77638C4Cu}}) {
        const auto t = synthesizeTrace(findProfile(pin.site, pin.queue), 1);
        ASSERT_EQ(t.size(), pin.jobs);
        uint32_t crc = 0;
        for (const auto &job : t) {
            crc = persist::crc32(&job.submitTime, sizeof job.submitTime, crc);
            crc = persist::crc32(&job.waitSeconds, sizeof job.waitSeconds,
                                 crc);
            crc = persist::crc32(&job.procs, sizeof job.procs, crc);
        }
        EXPECT_EQ(crc, pin.crc) << pin.site << "/" << pin.queue;
    }
}

} // namespace
} // namespace workload
} // namespace qdel
