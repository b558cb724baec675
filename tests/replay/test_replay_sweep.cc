/**
 * @file
 * replayStream() over an in-memory Trace, and the input contract both
 * replayStream() overloads share with ReplaySimulator::run(): the
 * sweep of a trace equals one ReplaySimulator run per queue, in
 * first-appearance order, at any thread count; unsorted and non-finite
 * submit times are refused from a Trace and from a stream alike; the
 * progress callback sees the whole sweep; and a one-thread replay
 * starts no worker thread.
 */

#include <dirent.h>

#include <cmath>
#include <filesystem>
#include <limits>
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

/**
 * Three queues whose ids (the order their names are interned) differ
 * from their first-appearance order, one of them the unnamed queue.
 */
trace::Trace
sweepTrace(size_t n)
{
    trace::Trace t("sweep-site", "sweep-machine");
    t.internQueue("late");
    t.internQueue("unused");
    for (size_t i = 0; i < n; ++i) {
        const char *queue = i % 3 == 0 ? "" : "early";
        if (i > n / 2 && i % 4 == 0)
            queue = "late";
        const double wait = (i % 3 == 0 ? 20.0 : 400.0) +
                            static_cast<double>((i * 53) % 211);
        t.add({10.0 * static_cast<double>(i), wait, 4, 60.0, queue});
    }
    return t;
}

void
expectSameResult(const QueueStreamResult &actual, const trace::Trace &queue,
                 const std::string &method, const ReplayConfig &config)
{
    auto predictor = core::makePredictor(method, {});
    const ReplayResult expected =
        ReplaySimulator(config).run(queue, *predictor).value();
    EXPECT_EQ(actual.result.totalJobs, expected.totalJobs);
    EXPECT_EQ(actual.result.evaluatedJobs, expected.evaluatedJobs);
    EXPECT_EQ(actual.result.correct, expected.correct);
    EXPECT_EQ(actual.result.correctFraction, expected.correctFraction);
    EXPECT_EQ(actual.result.medianRatio, expected.medianRatio);
    EXPECT_EQ(actual.result.windowCoverage, expected.windowCoverage);
    EXPECT_EQ(actual.result.failing, expected.failing);
    EXPECT_EQ(actual.trims, predictorTrimCount(*predictor));
}

std::string
scratchDir(const std::string &tag)
{
    const std::string dir = ::testing::TempDir() + "qdel_replay_sweep_" + tag;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

/** Write @p submits (queue "q") as a shard set; return the manifest. */
std::string
writeStream(const std::vector<double> &submits, const std::string &tag)
{
    trace::ShardWriterOptions options;
    options.directory = scratchDir(tag);
    options.shardSize = 3;
    trace::ShardedTraceWriter writer(options);
    for (double submit : submits)
        writer.add(submit, 5.0, 1.0, 1, 1, "q");
    EXPECT_TRUE(writer.finish().ok());
    return writer.manifestPath();
}

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(ReplaySweep, TraceSweepMatchesOneReplayPerQueue)
{
    const trace::Trace t = sweepTrace(3000);
    for (const char *method : {"bmbp", "lognormal-trim"}) {
        for (long long threads : {1, 4}) {
            SCOPED_TRACE(std::string(method) + " threads=" +
                         std::to_string(threads));
            StreamReplayConfig config;
            config.threads = threads;
            auto outcome = replayStream(t, method, {}, config);
            ASSERT_TRUE(outcome.ok()) << outcome.error().str();
            const StreamReplayResult &sweep = outcome.value();
            EXPECT_EQ(sweep.site, "sweep-site");
            EXPECT_EQ(sweep.totalJobs, t.size());
            // First-appearance order; the unused queue is left out.
            const std::vector<std::string> names = t.queueNames();
            ASSERT_EQ(names, (std::vector<std::string>{"", "early", "late"}));
            ASSERT_EQ(sweep.queues.size(), names.size());
            for (size_t q = 0; q < names.size(); ++q) {
                SCOPED_TRACE(names[q]);
                EXPECT_EQ(sweep.queues[q].queue, names[q]);
                expectSameResult(sweep.queues[q], t.filterByQueue(names[q]),
                                 method, config.replay);
            }
        }
    }
}

TEST(ReplaySweep, FilteredTraceSweepsItsOneQueue)
{
    const trace::Trace one = sweepTrace(900).filterByQueue("late");
    auto outcome = replayStream(one, "bmbp", {});
    ASSERT_TRUE(outcome.ok()) << outcome.error().str();
    ASSERT_EQ(outcome.value().queues.size(), 1u);
    EXPECT_EQ(outcome.value().queues[0].queue, "late");
    expectSameResult(outcome.value().queues[0], one, "bmbp", {});
}

TEST(ReplaySweep, RefusesUnsortedAndNonFiniteTraces)
{
    for (double bad : {5.0, kNaN, kInf, -kInf}) {
        SCOPED_TRACE(bad);
        trace::Trace t("s", "m");
        t.add({10.0, 1.0, 1, 1.0, "q"});
        t.add({20.0, 1.0, 1, 1.0, "q"});
        t.add({bad, 1.0, 1, 1.0, "q"});
        auto outcome = replayStream(t, "bmbp", {});
        ASSERT_FALSE(outcome.ok());
        EXPECT_NE(outcome.error().reason.find("sorted by submission time"),
                  std::string::npos)
            << outcome.error().str();
    }
}

TEST(ReplaySweep, RefusesUnsortedAndNonFiniteStreams)
{
    const std::vector<std::vector<double>> cases = {
        {10.0, 20.0, 30.0, 40.0, 35.0, 50.0},  // descends in shard 2
        {10.0, 20.0, 30.0, 25.0},              // descends across shards
        {10.0, kNaN, 30.0},                    // NaN orders against nothing
        {-kInf, 10.0},                         // non-finite first row
        {10.0, 20.0, 30.0, 40.0, kInf},        // non-finite last row
    };
    for (size_t c = 0; c < cases.size(); ++c) {
        SCOPED_TRACE(c);
        for (size_t batch : {size_t(1), size_t(2), size_t(64)}) {
            SCOPED_TRACE(batch);
            trace::StreamReadOptions read;
            read.batchSize = batch;
            auto reader = trace::StreamingTraceReader::open(
                writeStream(cases[c], "bad" + std::to_string(c)), read);
            ASSERT_TRUE(reader.ok()) << reader.error().str();
            auto outcome = replayStream(reader.value(), "bmbp", {});
            ASSERT_FALSE(outcome.ok());
            EXPECT_NE(
                outcome.error().reason.find("sorted by submission time"),
                std::string::npos)
                << outcome.error().str();
        }
    }
    // Ties are sorted.
    auto reader = trace::StreamingTraceReader::open(
        writeStream({10.0, 10.0, 10.0, 20.0}, "ties"));
    ASSERT_TRUE(reader.ok()) << reader.error().str();
    EXPECT_TRUE(replayStream(reader.value(), "bmbp", {}).ok());
}

TEST(ReplaySweep, ProgressCoversTheWholeSweep)
{
    const trace::Trace t = sweepTrace(2500);
    std::vector<ReplayProgress> seen;
    StreamReplayConfig config;
    config.replay.progressEveryJobs = 1000;
    config.replay.onProgress = [&](const ReplayProgress &p) {
        seen.push_back(p);
    };

    auto from_trace = replayStream(t, "bmbp", {}, config);
    ASSERT_TRUE(from_trace.ok()) << from_trace.error().str();
    // A trace's batches end on the multiples of 1000.
    std::vector<size_t> processed;
    for (const ReplayProgress &p : seen) {
        processed.push_back(p.jobsProcessed);
        EXPECT_EQ(p.totalJobs, t.size());
    }
    EXPECT_EQ(processed, (std::vector<size_t>{1000, 2000, 2500}));
    size_t evaluated = 0;
    size_t correct = 0;
    for (const auto &q : from_trace.value().queues) {
        evaluated += q.result.evaluatedJobs;
        correct += q.result.correct;
    }
    EXPECT_EQ(seen.back().evaluated, evaluated);
    EXPECT_EQ(seen.back().correct, correct);
    EXPECT_LT(seen.front().evaluated, evaluated);

    // A stream in 300-row batches reports as a batch passes 1000 and
    // 2000, then once at the end.
    trace::ShardWriterOptions options;
    options.directory = scratchDir("progress");
    trace::ShardedTraceWriter writer(options);
    for (size_t i = 0; i < t.size(); ++i)
        writer.add(t[i]);
    ASSERT_TRUE(writer.finish().ok());
    trace::StreamReadOptions read;
    read.batchSize = 300;
    auto reader = trace::StreamingTraceReader::open(writer.manifestPath(),
                                                    read);
    ASSERT_TRUE(reader.ok()) << reader.error().str();
    seen.clear();
    ASSERT_TRUE(replayStream(reader.value(), "bmbp", {}, config).ok());
    processed.clear();
    for (const ReplayProgress &p : seen) {
        processed.push_back(p.jobsProcessed);
        EXPECT_EQ(p.totalJobs, t.size());
    }
    EXPECT_EQ(processed, (std::vector<size_t>{1200, 2100, 2500}));
    EXPECT_EQ(seen.back().evaluated, evaluated);
    EXPECT_EQ(seen.back().correct, correct);
}

/** Threads in this process, from /proc/self/task. */
size_t
threadCount()
{
    size_t count = 0;
    DIR *dir = ::opendir("/proc/self/task");
    if (dir == nullptr)
        return 0;
    while (const struct dirent *entry = ::readdir(dir)) {
        if (entry->d_name[0] != '.')
            ++count;
    }
    ::closedir(dir);
    return count;
}

TEST(ReplaySweep, OneThreadStartsNoWorker)
{
    const trace::Trace t = sweepTrace(900);
    const size_t before = threadCount();
    ASSERT_GT(before, 0u);
    std::vector<size_t> during;
    ReplayConfig replay;
    replay.progressEveryJobs = 300;
    replay.onProgress = [&](const ReplayProgress &) {
        during.push_back(threadCount());
    };

    // Three queues at one thread: the sweep never fans out.
    StreamReplayConfig config;
    config.replay = replay;
    config.threads = 1;
    ASSERT_TRUE(replayStream(t, "bmbp", {}, config).ok());
    EXPECT_EQ(during, std::vector<size_t>(3, before));

    // One core: nothing to fan out at all.
    during.clear();
    auto predictor = core::makePredictor("bmbp", {});
    ASSERT_TRUE(ReplaySimulator(replay).run(t, *predictor).ok());
    EXPECT_EQ(during, std::vector<size_t>(3, before));
}

} // namespace
} // namespace sim
} // namespace qdel
