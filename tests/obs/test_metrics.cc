/**
 * @file
 * Tests for the metrics registry: bucket boundary semantics, exact
 * summation under concurrent increments (the TSan target), snapshot
 * merge rules, both serializers, and registry idempotence.
 */

#include <atomic>
#include <cmath>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.hh"

namespace qdel {
namespace obs {
namespace {

/** Fresh metric state per test; saves and restores the global switch. */
class MetricsTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        wasEnabled_ = enabled();
        registry().resetForTest();
    }

    void TearDown() override
    {
        setEnabled(wasEnabled_);
        registry().resetForTest();
    }

  private:
    bool wasEnabled_ = false;
};

TEST_F(MetricsTest, CounterStartsAtZeroAndAccumulates)
{
    Counter counter("test_counter_total", "help");
    EXPECT_EQ(counter.value(), 0u);
    counter.inc();
    counter.inc(41);
    EXPECT_EQ(counter.value(), 42u);
    EXPECT_EQ(counter.name(), "test_counter_total");
}

TEST_F(MetricsTest, GaugeSetAndAdd)
{
    Gauge gauge("test_gauge", "help");
    EXPECT_EQ(gauge.value(), 0.0);
    gauge.set(2.5);
    EXPECT_EQ(gauge.value(), 2.5);
    gauge.add(-0.5);
    EXPECT_EQ(gauge.value(), 2.0);
    gauge.set(7.0);  // set overrides, last write wins
    EXPECT_EQ(gauge.value(), 7.0);
}

TEST_F(MetricsTest, HistogramBucketBoundaries)
{
    // Prometheus "le" semantics: bucket i counts v <= bounds[i].
    Histogram histogram("test_hist", "help", {1.0, 2.0, 4.0});

    EXPECT_EQ(histogram.bucketIndex(0.5), 0u);  // below first bound
    EXPECT_EQ(histogram.bucketIndex(1.0), 0u);  // exact boundary
    EXPECT_EQ(histogram.bucketIndex(1.5), 1u);
    EXPECT_EQ(histogram.bucketIndex(2.0), 1u);  // exact boundary
    EXPECT_EQ(histogram.bucketIndex(4.0), 2u);  // exact last bound
    EXPECT_EQ(histogram.bucketIndex(4.1), 3u);  // overflow (+Inf)
    EXPECT_EQ(histogram.bucketIndex(1e30), 3u);
    EXPECT_EQ(histogram.bucketIndex(-1.0), 0u); // no underflow bucket
    EXPECT_EQ(histogram.bucketIndex(
                  std::numeric_limits<double>::quiet_NaN()),
              3u);  // NaN counts, in the overflow bucket

    for (double v : {0.5, 1.0, 1.5, 2.0, 4.0, 4.1})
        histogram.observe(v);
    const auto counts = histogram.counts();
    ASSERT_EQ(counts.size(), 4u);  // bounds + overflow
    EXPECT_EQ(counts[0], 2u);
    EXPECT_EQ(counts[1], 2u);
    EXPECT_EQ(counts[2], 1u);
    EXPECT_EQ(counts[3], 1u);
    EXPECT_EQ(histogram.count(), 6u);
    EXPECT_DOUBLE_EQ(histogram.sum(), 0.5 + 1.0 + 1.5 + 2.0 + 4.0 + 4.1);
}

TEST_F(MetricsTest, HistogramSortsAndDeduplicatesBounds)
{
    Histogram histogram("test_hist_unsorted", "help", {4.0, 1.0, 2.0, 1.0});
    const std::vector<double> expected = {1.0, 2.0, 4.0};
    EXPECT_EQ(histogram.bounds(), expected);
}

TEST_F(MetricsTest, ExponentialBoundsShape)
{
    const auto bounds = exponentialBounds(1e-6, 4.0, 13);
    ASSERT_EQ(bounds.size(), 13u);
    EXPECT_DOUBLE_EQ(bounds[0], 1e-6);
    for (size_t i = 1; i < bounds.size(); ++i)
        EXPECT_DOUBLE_EQ(bounds[i], bounds[i - 1] * 4.0);
}

TEST_F(MetricsTest, ConcurrentCounterIncrementsSumExactly)
{
    // The sharding claim: concurrent relaxed increments are never
    // lost. Run under TSan in CI.
    Counter &counter =
        registry().counter("test_concurrent_total", "help");
    constexpr int kThreads = 8;
    constexpr int kPerThread = 20000;
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&counter] {
            for (int i = 0; i < kPerThread; ++i)
                counter.inc();
        });
    }
    for (auto &thread : threads)
        thread.join();
    EXPECT_EQ(counter.value(),
              static_cast<uint64_t>(kThreads) * kPerThread);
}

TEST_F(MetricsTest, ConcurrentHistogramObservationsSumExactly)
{
    Histogram &histogram = registry().histogram(
        "test_concurrent_hist", "help", {1.0, 10.0});
    constexpr int kThreads = 8;
    constexpr int kPerThread = 5000;
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&histogram, t] {
            for (int i = 0; i < kPerThread; ++i)
                histogram.observe(static_cast<double>(t % 3) * 4.0);
        });
    }
    for (auto &thread : threads)
        thread.join();
    EXPECT_EQ(histogram.count(),
              static_cast<uint64_t>(kThreads) * kPerThread);
}

TEST_F(MetricsTest, ConcurrentRegistrationSnapshotAndMergeAgree)
{
    // Registration is idempotent per name and must stay so when many
    // threads race to register the same families while a reader
    // snapshots and merges mid-registration. Every increment lands on
    // whatever instance the registry handed out, so the final snapshot
    // must sum exactly — no lost updates, no duplicate families.
    constexpr int kThreads = 8;
    constexpr int kFamilies = 5;
    constexpr int kIncrements = 2000;

    std::atomic<bool> stop{false};
    std::atomic<uint64_t> merged_reads{0};
    std::thread reader([&] {
        MetricsSnapshot accumulated;
        while (!stop.load(std::memory_order_relaxed)) {
            // snapshot() walks the deques under the registration
            // mutex; merge() must tolerate families appearing between
            // iterations (they sum by name).
            MetricsSnapshot snap = registry().snapshot();
            accumulated.merge(snap);
            merged_reads.fetch_add(1, std::memory_order_relaxed);
        }
    });

    std::vector<std::thread> writers;
    for (int t = 0; t < kThreads; ++t) {
        writers.emplace_back([t] {
            for (int i = 0; i < kIncrements; ++i) {
                const std::string name =
                    "test_conc_reg_" + std::to_string((t + i) % kFamilies) +
                    "_total";
                registry().counter(name, "concurrent registration").inc();
                registry()
                    .gauge("test_conc_gauge_" +
                               std::to_string(i % kFamilies),
                           "concurrent gauge")
                    .set(static_cast<double>(i));
                registry()
                    .histogram("test_conc_hist_" +
                                   std::to_string(i % kFamilies),
                               "concurrent histogram", {1.0, 10.0})
                    .observe(static_cast<double>(i % 20));
            }
        });
    }
    for (auto &thread : writers)
        thread.join();
    stop.store(true, std::memory_order_relaxed);
    reader.join();
    EXPECT_GT(merged_reads.load(), 0u);

    const MetricsSnapshot final_snap = registry().snapshot();
    uint64_t counter_total = 0;
    int counter_families = 0;
    for (const auto &counter : final_snap.counters) {
        if (counter.name.rfind("test_conc_reg_", 0) == 0) {
            ++counter_families;
            counter_total += counter.value;
        }
    }
    EXPECT_EQ(counter_families, kFamilies);  // no duplicate registration
    EXPECT_EQ(counter_total,
              static_cast<uint64_t>(kThreads) * kIncrements);

    uint64_t histogram_total = 0;
    int histogram_families = 0;
    for (const auto &histogram : final_snap.histograms) {
        if (histogram.name.rfind("test_conc_hist_", 0) == 0) {
            ++histogram_families;
            histogram_total += histogram.count;
        }
    }
    EXPECT_EQ(histogram_families, kFamilies);
    EXPECT_EQ(histogram_total,
              static_cast<uint64_t>(kThreads) * kIncrements);
}

TEST_F(MetricsTest, RegistryIsIdempotentPerName)
{
    Counter &a = registry().counter("test_idem_total", "help");
    Counter &b = registry().counter("test_idem_total", "other help");
    EXPECT_EQ(&a, &b);

    Gauge &g1 = registry().gauge("test_idem_gauge", "");
    Gauge &g2 = registry().gauge("test_idem_gauge", "");
    EXPECT_EQ(&g1, &g2);

    Histogram &h1 =
        registry().histogram("test_idem_hist", "", {1.0, 2.0});
    Histogram &h2 =
        registry().histogram("test_idem_hist", "", {5.0});
    EXPECT_EQ(&h1, &h2);
    // First registration's bounds win.
    const std::vector<double> expected = {1.0, 2.0};
    EXPECT_EQ(h1.bounds(), expected);
}

TEST_F(MetricsTest, SnapshotCapturesRegisteredMetrics)
{
    registry().counter("test_snap_total", "a counter").inc(3);
    registry().gauge("test_snap_gauge", "a gauge").set(1.5);
    registry()
        .histogram("test_snap_hist", "a histogram", {1.0})
        .observe(0.5);

    const MetricsSnapshot snapshot = registry().snapshot();
    bool found_counter = false, found_gauge = false, found_hist = false;
    for (const auto &counter : snapshot.counters) {
        if (counter.name == "test_snap_total") {
            found_counter = true;
            EXPECT_EQ(counter.value, 3u);
        }
    }
    for (const auto &gauge : snapshot.gauges) {
        if (gauge.name == "test_snap_gauge") {
            found_gauge = true;
            EXPECT_EQ(gauge.value, 1.5);
        }
    }
    for (const auto &histogram : snapshot.histograms) {
        if (histogram.name == "test_snap_hist") {
            found_hist = true;
            EXPECT_EQ(histogram.count, 1u);
            ASSERT_EQ(histogram.counts.size(), 2u);
            EXPECT_EQ(histogram.counts[0], 1u);
        }
    }
    EXPECT_TRUE(found_counter);
    EXPECT_TRUE(found_gauge);
    EXPECT_TRUE(found_hist);
}

TEST_F(MetricsTest, MergeSumsCountersAndHistogramsGaugesLatestWin)
{
    MetricsSnapshot ours;
    ours.counters.push_back({"c_total", "", 2});
    ours.gauges.push_back({"g", "", 1.0});
    ours.histograms.push_back({"h", "", {1.0}, {2, 1}, 3.0, 3});

    MetricsSnapshot theirs;
    theirs.counters.push_back({"c_total", "", 5});
    theirs.counters.push_back({"new_total", "", 7});
    theirs.gauges.push_back({"g", "", 9.0});
    theirs.histograms.push_back({"h", "", {1.0}, {1, 1}, 2.5, 2});

    ours.merge(theirs);
    ASSERT_EQ(ours.counters.size(), 2u);
    EXPECT_EQ(ours.counters[0].value, 7u);  // 2 + 5
    EXPECT_EQ(ours.counters[1].name, "new_total");
    EXPECT_EQ(ours.counters[1].value, 7u);
    EXPECT_EQ(ours.gauges[0].value, 9.0);   // theirs wins
    ASSERT_EQ(ours.histograms.size(), 1u);
    EXPECT_EQ(ours.histograms[0].counts[0], 3u);
    EXPECT_EQ(ours.histograms[0].counts[1], 2u);
    EXPECT_EQ(ours.histograms[0].count, 5u);
    EXPECT_DOUBLE_EQ(ours.histograms[0].sum, 5.5);
}

TEST_F(MetricsTest, MergeKeepsOursOnBoundMismatch)
{
    MetricsSnapshot ours;
    ours.histograms.push_back({"h", "", {1.0}, {2, 1}, 3.0, 3});
    MetricsSnapshot theirs;
    theirs.histograms.push_back({"h", "", {5.0}, {9, 9}, 99.0, 18});
    ours.merge(theirs);
    EXPECT_EQ(ours.histograms[0].count, 3u);
    EXPECT_EQ(ours.histograms[0].counts[0], 2u);
}

TEST_F(MetricsTest, PrometheusRenderingIsWellFormed)
{
    registry().counter("test_prom_total", "counts things").inc(4);
    registry()
        .histogram("test_prom_seconds", "timing", {1.0, 2.0})
        .observe(1.5);
    const std::string text = renderPrometheus(registry().snapshot());

    EXPECT_NE(text.find("# HELP test_prom_total counts things"),
              std::string::npos);
    EXPECT_NE(text.find("# TYPE test_prom_total counter"),
              std::string::npos);
    EXPECT_NE(text.find("test_prom_total 4"), std::string::npos);
    EXPECT_NE(text.find("# TYPE test_prom_seconds histogram"),
              std::string::npos);
    // Cumulative buckets: 0 <= 1.0, 1 <= 2.0, 1 at +Inf.
    EXPECT_NE(text.find("test_prom_seconds_bucket{le=\"1\"} 0"),
              std::string::npos);
    EXPECT_NE(text.find("test_prom_seconds_bucket{le=\"2\"} 1"),
              std::string::npos);
    EXPECT_NE(text.find("test_prom_seconds_bucket{le=\"+Inf\"} 1"),
              std::string::npos);
    EXPECT_NE(text.find("test_prom_seconds_count 1"), std::string::npos);
    EXPECT_NE(text.find("test_prom_seconds_sum 1.5"), std::string::npos);
}

TEST_F(MetricsTest, JsonRenderingContainsAllMetrics)
{
    registry().counter("test_json_total", "").inc();
    registry().gauge("test_json_gauge", "").set(3.0);
    const std::string json = renderJson(registry().snapshot());
    EXPECT_EQ(json.front(), '{');
    EXPECT_NE(json.find("\"test_json_total\""), std::string::npos);
    EXPECT_NE(json.find("\"test_json_gauge\""), std::string::npos);
}

TEST_F(MetricsTest, JsonRenderingGolden)
{
    MetricsSnapshot snapshot;
    snapshot.counters.push_back({"req_total", "", 42});
    snapshot.gauges.push_back({"depth", "", 2.5});
    snapshot.gauges.push_back({"ratio", "", 1.0 / 3.0});
    HistogramSnapshot h;
    h.name = "lat_seconds";
    h.bounds = {0.001, 1.0};
    h.counts = {1, 2, 0};
    h.sum = 1.25;
    h.count = 3;
    snapshot.histograms.push_back(h);
    EXPECT_EQ(renderJson(snapshot),
              R"({"counters":{"req_total":42},)"
              R"("gauges":{"depth":2.5,"ratio":0.333333333333},)"
              R"("histograms":{"lat_seconds":{"bounds":[0.001,1],)"
              R"("counts":[1,2,0],"sum":1.25,"count":3}}})"
              "\n");
    EXPECT_EQ(renderJson(MetricsSnapshot{}),
              R"({"counters":{},"gauges":{},"histograms":{}})"
              "\n");
}

TEST_F(MetricsTest, EnabledToggle)
{
    setEnabled(false);
    EXPECT_FALSE(enabled());
    setEnabled(true);
    EXPECT_TRUE(enabled());
    setEnabled(false);
    EXPECT_FALSE(enabled());
}

TEST_F(MetricsTest, ResetForTestZeroesValuesButKeepsRegistrations)
{
    Counter &counter = registry().counter("test_reset_total", "");
    counter.inc(5);
    registry().resetForTest();
    EXPECT_EQ(counter.value(), 0u);
    EXPECT_EQ(&registry().counter("test_reset_total", ""), &counter);
}

TEST_F(MetricsTest, WriteMetricsFileChoosesFormatByExtension)
{
    registry().counter("test_file_total", "").inc(2);
    const std::string dir = ::testing::TempDir();

    std::string error;
    const std::string prom_path = dir + "qdel_obs_test.prom";
    ASSERT_TRUE(writeMetricsFile(prom_path, &error)) << error;
    std::ifstream prom(prom_path);
    std::string prom_text((std::istreambuf_iterator<char>(prom)),
                          std::istreambuf_iterator<char>());
    EXPECT_NE(prom_text.find("# TYPE test_file_total counter"),
              std::string::npos);

    const std::string json_path = dir + "qdel_obs_test.json";
    ASSERT_TRUE(writeMetricsFile(json_path, &error)) << error;
    std::ifstream json(json_path);
    std::string json_text((std::istreambuf_iterator<char>(json)),
                          std::istreambuf_iterator<char>());
    EXPECT_EQ(json_text.front(), '{');

    EXPECT_FALSE(
        writeMetricsFile(dir + "no/such/dir/x.prom", &error));
    EXPECT_FALSE(error.empty());
}

} // namespace
} // namespace obs
} // namespace qdel
