/**
 * @file
 * The streaming replay's central contract: for every queue, streaming
 * out-of-core evaluation is *byte-identical* to ReplaySimulator on the
 * in-memory queue-filtered trace — for any shard size, batch size, and
 * thread count, across methods with and without change-point trimming
 * (trims fire mid-batch here by construction), for epoch-based and
 * per-job refit schedules, and whether or not the accuracy-ratio
 * median spilled to disk. The calibration window and its verdict are
 * part of the compared result.
 */

#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sim/replay/evaluation.hh"
#include "sim/replay/replay_simulator.hh"
#include "sim/replay/stream_replay.hh"
#include "trace/qtc_stream.hh"

namespace qdel {
namespace sim {
namespace {

std::string
scratchDir(const std::string &tag)
{
    const std::string dir =
        ::testing::TempDir() + "qdel_stream_parity_" + tag;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

/**
 * A three-queue trace engineered to exercise every ordering edge:
 * interleaved queues with different wait regimes, a mid-trace regime
 * shift (provokes trimming), zero-wait jobs (release ties with their
 * own submit), duplicate submit times, and a queue that first appears
 * late in the stream.
 */
trace::Trace
parityTrace(size_t n)
{
    trace::Trace t("parity-site", "parity-machine");
    double submit = 10'000.0;
    for (size_t i = 0; i < n; ++i) {
        trace::JobRecord job;
        submit += static_cast<double>(i % 7) * 40.0;  // dup when i%7==0
        job.submitTime = submit;
        const char *queue = i % 3 == 0 ? "batch" : "interactive";
        double wait;
        if (i % 3 == 0) {
            // Regime shift in "batch" to provoke change-point trims.
            wait = (i < n / 2 ? 50.0 : 9'000.0) +
                   static_cast<double>((i * 37) % 113);
        } else {
            wait = 30.0 + static_cast<double>((i * 131) % 601);
        }
        if (i % 17 == 0)
            wait = 0.0;  // release at the submit instant
        if (i > (3 * n) / 4 && i % 5 == 0)
            queue = "late";  // appears after most shard boundaries
        job.queue = queue;
        job.waitSeconds = wait;
        job.runSeconds = 120.0;
        job.procs = 1 + static_cast<int>(i % 16);
        job.status = 1;
        t.add(std::move(job));
    }
    return t;
}

trace::Trace
filterByQueue(const trace::Trace &t, const std::string &queue)
{
    trace::Trace sub(t.site(), t.machine());
    for (size_t i = 0; i < t.size(); ++i) {
        if (t[i].queue == queue) {
            trace::JobRecord copy = t[i];
            sub.add(std::move(copy));
        }
    }
    return sub;
}

/** Write @p t as a shard set; returns the manifest path. */
std::string
writeShards(const trace::Trace &t, const std::string &dir,
            size_t shard_size)
{
    trace::ShardWriterOptions options;
    options.directory = dir;
    options.shardSize = shard_size;
    options.site = t.site();
    options.machine = t.machine();
    trace::ShardedTraceWriter writer(options);
    for (size_t i = 0; i < t.size(); ++i)
        writer.add(t[i]);
    EXPECT_TRUE(writer.finish().ok());
    return writer.manifestPath();
}

struct ScalarExpectation
{
    ReplayResult result;
    size_t trims = 0;
};

ScalarExpectation
runScalar(const trace::Trace &t, const std::string &method,
          const ReplayConfig &config)
{
    auto predictor = core::makePredictor(method, {});
    ReplaySimulator simulator(config);
    ScalarExpectation expected;
    expected.result = simulator.run(t, *predictor).value();
    expected.trims = predictorTrimCount(*predictor);
    return expected;
}

void
expectQueueParity(const QueueStreamResult &actual,
                  const ScalarExpectation &expected,
                  const std::string &context)
{
    EXPECT_EQ(actual.result.totalJobs, expected.result.totalJobs)
        << context;
    EXPECT_EQ(actual.result.trainingJobs, expected.result.trainingJobs)
        << context;
    EXPECT_EQ(actual.result.evaluatedJobs, expected.result.evaluatedJobs)
        << context;
    EXPECT_EQ(actual.result.correct, expected.result.correct) << context;
    EXPECT_EQ(actual.result.infinitePredictions,
              expected.result.infinitePredictions)
        << context;
    // Bitwise, not approximate: the streaming path must reproduce the
    // in-memory arithmetic exactly.
    EXPECT_EQ(actual.result.correctFraction,
              expected.result.correctFraction)
        << context;
    EXPECT_EQ(actual.result.medianRatio, expected.result.medianRatio)
        << context;
    // The calibration window and its verdict, bit for bit too.
    EXPECT_EQ(actual.result.windowCount, expected.result.windowCount)
        << context;
    EXPECT_EQ(actual.result.windowHits, expected.result.windowHits)
        << context;
    EXPECT_EQ(actual.result.windowCoverage,
              expected.result.windowCoverage)
        << context;
    EXPECT_EQ(actual.result.drift, expected.result.drift) << context;
    EXPECT_EQ(actual.result.pValue, expected.result.pValue) << context;
    EXPECT_EQ(actual.result.failing, expected.result.failing) << context;
    EXPECT_EQ(actual.trims, expected.trims) << context;
}

void
checkParity(const trace::Trace &t, const std::string &method,
            const ReplayConfig &replay_config, const std::string &tag,
            const std::vector<size_t> &shard_sizes,
            const std::vector<size_t> &batch_sizes,
            const std::vector<long long> &thread_counts,
            size_t spill_threshold = size_t(1) << 25)
{
    // Scalar reference, one run per queue.
    std::vector<std::string> queues;
    for (size_t i = 0; i < t.size(); ++i) {
        if (std::find(queues.begin(), queues.end(), t[i].queue) ==
            queues.end())
            queues.push_back(t[i].queue);
    }
    std::vector<ScalarExpectation> expected;
    for (const auto &queue : queues) {
        expected.push_back(
            runScalar(filterByQueue(t, queue), method, replay_config));
    }

    for (size_t shard_size : shard_sizes) {
        const std::string dir = scratchDir(
            tag + "_s" + std::to_string(shard_size));
        const std::string manifest = writeShards(t, dir, shard_size);
        for (size_t batch_size : batch_sizes) {
            for (long long threads : thread_counts) {
                trace::StreamReadOptions read;
                read.batchSize = batch_size;
                auto reader =
                    trace::StreamingTraceReader::open(manifest, read);
                ASSERT_TRUE(reader.ok()) << reader.error().str();

                StreamReplayConfig config;
                config.epochSeconds = replay_config.epochSeconds;
                config.trainFraction = replay_config.trainFraction;
                config.batchSize = batch_size;
                config.threads = threads;
                config.spillDir = dir;
                config.spillThresholdDoubles = spill_threshold;
                auto outcome = replayStream(reader.value(), method, {},
                                            config);
                ASSERT_TRUE(outcome.ok()) << outcome.error().str();

                const auto &stream = outcome.value();
                const std::string context =
                    tag + " shard=" + std::to_string(shard_size) +
                    " batch=" + std::to_string(batch_size) +
                    " threads=" + std::to_string(threads);
                EXPECT_EQ(stream.totalJobs, t.size()) << context;
                ASSERT_EQ(stream.queues.size(), queues.size()) << context;
                // The stream's queue table is in first-appearance
                // order, the same order `queues` was collected in.
                for (size_t q = 0; q < queues.size(); ++q) {
                    EXPECT_EQ(stream.queues[q].queue, queues[q])
                        << context;
                    expectQueueParity(stream.queues[q], expected[q],
                                      context + " queue=" + queues[q]);
                }
            }
        }
    }
}

TEST(StreamParity, TrimmingMethodAcrossShardBatchThreadGrid)
{
    const auto t = parityTrace(2400);
    ReplayConfig config;  // epoch 300s, 10% training
    checkParity(t, "lognormal-trim", config, "trimgrid",
                /*shard_sizes=*/{64, 500, 100'000},
                /*batch_sizes=*/{13, 256},
                /*thread_counts=*/{1, 4});
}

TEST(StreamParity, BmbpEpochPerJob)
{
    const auto t = parityTrace(900);
    ReplayConfig config;
    config.epochSeconds = 0.0;  // refit before every arrival
    checkParity(t, "bmbp", config, "perjob",
                /*shard_sizes=*/{101},
                /*batch_sizes=*/{64},
                /*thread_counts=*/{1, 4});
}

TEST(StreamParity, BaselineMethods)
{
    const auto t = parityTrace(1200);
    ReplayConfig config;
    for (const char *method : {"percentile", "loguniform", "lognormal"}) {
        checkParity(t, method, config, std::string("base_") + method,
                    /*shard_sizes=*/{250},
                    /*batch_sizes=*/{97},
                    /*thread_counts=*/{2});
    }
}

TEST(StreamParity, SpilledMedianMatchesInMemoryBitwise)
{
    const auto t = parityTrace(1500);
    ReplayConfig config;
    // Threshold of 8 doubles forces every queue's ratio series through
    // the external radix-selection median.
    checkParity(t, "lognormal-trim", config, "spill",
                /*shard_sizes=*/{300},
                /*batch_sizes=*/{128},
                /*thread_counts=*/{4},
                /*spill_threshold=*/8);
}

TEST(StreamParity, SingleQueueZeroCopyPath)
{
    trace::Trace t("s", "m");
    double submit = 0.0;
    for (size_t i = 0; i < 800; ++i) {
        trace::JobRecord job;
        submit += static_cast<double>(i % 5) * 60.0;
        job.submitTime = submit;
        job.waitSeconds = (i < 400 ? 40.0 : 2'000.0) +
                          static_cast<double>((i * 29) % 251);
        job.runSeconds = 30.0;
        job.procs = 4;
        job.status = 1;
        job.queue = "only";
        t.add(std::move(job));
    }
    ReplayConfig config;
    checkParity(t, "lognormal-trim", config, "single",
                /*shard_sizes=*/{190},
                /*batch_sizes=*/{77},
                /*thread_counts=*/{1, 4});
}

TEST(StreamParity, EmptyStream)
{
    const std::string dir = scratchDir("empty");
    trace::ShardWriterOptions options;
    options.directory = dir;
    options.site = "s";
    options.machine = "m";
    trace::ShardedTraceWriter writer(options);
    ASSERT_TRUE(writer.finish().ok());

    auto reader = trace::StreamingTraceReader::open(writer.manifestPath());
    ASSERT_TRUE(reader.ok()) << reader.error().str();
    auto outcome = replayStream(reader.value(), "bmbp", {}, {});
    ASSERT_TRUE(outcome.ok()) << outcome.error().str();
    EXPECT_EQ(outcome.value().totalJobs, 0u);
    EXPECT_TRUE(outcome.value().queues.empty());
}

} // namespace
} // namespace sim
} // namespace qdel
