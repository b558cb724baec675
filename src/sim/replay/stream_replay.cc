/**
 * @file
 * Implementation of the per-queue replay sweep.
 */

#include "sim/replay/stream_replay.hh"

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <functional>
#include <future>
#include <limits>
#include <memory>
#include <numeric>

#include "obs/domain_metrics.hh"
#include "obs/obs.hh"
#include "sim/replay/evaluation.hh"
#include "sim/replay/queue_core.hh"
#include "util/resource_usage.hh"
#include "util/thread_pool.hh"

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

namespace qdel {
namespace sim {

namespace {

/** RSS sampling cadence, in batches (plus once per shard change). */
constexpr size_t kRssSampleEveryBatches = 32;

/** Distinguishes spill files of concurrent runs in one process. */
std::atomic<uint64_t> spillSerial{0};

std::string
spillFilePath(const std::string &dir, uint64_t serial, size_t queue_id)
{
    long long pid = 0;
#if defined(__unix__) || defined(__APPLE__)
    pid = static_cast<long long>(::getpid());
#endif
    return dir + "/qdel_stream_ratios_" + std::to_string(pid) + "_" +
           std::to_string(serial) + "_" + std::to_string(queue_id) +
           ".spill";
}

/** Reusable per-queue (submit, wait) staging for multi-queue batches. */
struct QueueRun
{
    std::vector<double> submit;
    std::vector<double> wait;
};

/** The one error both overloads give input that breaks
 *  ReplaySimulator::run()'s contract. */
ParseError
unsortedInput()
{
    return {"", 0, "trace",
            "replay input must be sorted by submission time, with finite "
            "submit times"};
}

/** What a sweep reads: labels, a queue table, each queue's job count,
 *  the result order, and batches of rows (next() is false at the end). */
struct SweepInput
{
    const std::string &site;
    const std::string &machine;
    size_t shards = 0;
    const std::vector<std::string> &queueNames;
    std::vector<uint64_t> queueTotals;
    size_t jobs = 0;
    std::vector<uint32_t> resultOrder;
    std::function<Expected<bool>(trace::ColumnBatch *)> next;
};

/** The sweep both overloads run (see the header). */
Expected<StreamReplayResult>
sweepQueues(const SweepInput &input, const std::string &method,
            const core::PredictorOptions &options,
            const StreamReplayConfig &config)
{
    if (auto valid = config.replay.validate(); !valid.ok())
        return valid.error();

    std::string spill_dir = config.spillDir;
    if (spill_dir.empty()) {
        std::error_code ec;
        auto tmp = std::filesystem::temp_directory_path(ec);
        spill_dir = ec ? "." : tmp.string();
    }
    const uint64_t serial =
        spillSerial.fetch_add(1, std::memory_order_relaxed);

    const size_t n_queues = input.queueNames.size();
    std::vector<std::unique_ptr<core::Predictor>> predictors;
    std::vector<std::unique_ptr<QueueCore>> cores;
    for (size_t q = 0; q < n_queues; ++q) {
        auto predictor = core::tryMakePredictor(method, options);
        if (!predictor.ok())
            return predictor.error();
        predictors.push_back(std::move(predictor).value());
        const auto training = static_cast<uint64_t>(
            config.replay.trainFraction *
            static_cast<double>(input.queueTotals[q]));
        cores.push_back(std::make_unique<QueueCore>(
            *predictors.back(),
            QueueCore::Rules{config.replay.epochSeconds, training}, nullptr,
            spillFilePath(spill_dir, serial, q),
            config.spillThresholdDoubles));
    }

    StreamReplayResult result;
    result.site = input.site;
    result.machine = input.machine;
    result.shards = input.shards;
    const size_t every =
        config.replay.onProgress ? config.replay.progressEveryJobs : 0;
    size_t reported = 0;  // totalJobs at the last progress report
    auto report_progress = [&]() {
        ReplayProgress progress{result.totalJobs, input.jobs, 0, 0};
        for (const auto &core : cores) {
            progress.evaluated += core->evaluated();
            progress.correct += core->correct();
        }
        config.replay.onProgress(progress);
        reported = result.totalJobs;
    };

    ThreadPool pool(ThreadPool::resolveThreadCount(config.threads));
    std::vector<QueueRun> runs(n_queues);
    std::vector<size_t> touched;
    touched.reserve(n_queues);

    trace::ColumnBatch batch;
    while (true) {
        auto more = input.next(&batch);
        if (!more.ok())
            return more.error();
        if (!more.value())
            break;

        result.totalJobs += batch.size;
        ++result.batches;
        QDEL_OBS(obs::replayMetrics().batches.inc());

        if (n_queues == 1) {
            // Single queue: evaluate straight off the input columns.
            cores[0]->processRows(batch.submit, batch.wait, batch.size);
        } else {
            // Scatter the batch into per-queue runs (order-preserving
            // within each queue), then fan the touched queues out and
            // join before the next batch invalidates the columns.
            touched.clear();
            for (size_t row = 0; row < batch.size; ++row) {
                QueueRun &run = runs[batch.queueId[row]];
                if (run.submit.empty())
                    touched.push_back(batch.queueId[row]);
                run.submit.push_back(batch.submit[row]);
                run.wait.push_back(batch.wait[row]);
            }
            auto process = [&](size_t q) {
                cores[q]->processRows(runs[q].submit.data(),
                                      runs[q].wait.data(),
                                      runs[q].submit.size());
            };
            if (touched.size() == 1 || pool.size() == 1) {
                for (size_t q : touched)
                    process(q);
            } else {
                std::vector<std::future<void>> joins;
                for (size_t q : touched)
                    joins.push_back(pool.submit([&, q] { process(q); }));
                for (auto &join : joins)
                    join.get();
            }
            for (size_t q : touched) {
                runs[q].submit.clear();
                runs[q].wait.clear();
            }
        }
        if (every > 0 && result.totalJobs / every > reported / every)
            report_progress();
    }
    if (every > 0 && reported != result.totalJobs)
        report_progress();

    for (uint32_t q : input.resultOrder) {
        if (cores[q]->submits() == 0)
            continue;
        auto scored = cores[q]->result();
        if (!scored.ok())
            return scored.error();
        result.queues.push_back({input.queueNames[q],
                                 std::move(scored).value(),
                                 predictorTrimCount(*predictors[q])});
    }
    return result;
}

} // namespace

Expected<StreamReplayResult>
replayStream(trace::StreamingTraceReader &reader, const std::string &method,
             const core::PredictorOptions &options,
             const StreamReplayConfig &config)
{
    // RSS is sampled as each shard starts, every kRssSampleEveryBatches
    // batches and at the end; one shard is in flight until the end.
    size_t batches = 0;
    size_t last_shard = 0;
    size_t peak_resident = 0;
    auto sample_memory = [&](double shards_in_flight) {
        const size_t resident = util::currentResidentBytes();
        peak_resident = std::max(peak_resident, resident);
        QDEL_OBS({
            obs::replayMetrics().residentBytes.set(
                static_cast<double>(resident));
            obs::replayMetrics().streamShardLag.set(shards_in_flight);
        });
    };

    SweepInput input{reader.site(), reader.machine(), reader.shardCount(),
                     reader.queueNames(), reader.queueJobCounts(),
                     reader.jobCount(), {}, nullptr};
    input.resultOrder.resize(reader.queueNames().size());
    std::iota(input.resultOrder.begin(), input.resultOrder.end(), 0u);
    double last_submit = std::numeric_limits<double>::lowest();
    input.next = [&](trace::ColumnBatch *batch) -> Expected<bool> {
        // The sweep has evaluated every row handed out so far.
        if (batches > 0 && (reader.currentShard() != last_shard ||
                            batches % kRssSampleEveryBatches == 0)) {
            last_shard = reader.currentShard();
            sample_memory(1.0);
        }
        auto more = reader.next(batch);
        if (!more.ok() || !more.value())
            return more;
        ++batches;
        // One comparison a row on the submit column: NaN and -inf fail
        // it (the first row meets lowest(), not -inf), and +inf can
        // only end a batch that passes it.
        const double *submit = batch->submit;
        bool ordered = submit[0] >= last_submit;
        for (size_t row = 1; row < batch->size; ++row)
            ordered &= submit[row] >= submit[row - 1];
        last_submit = submit[batch->size - 1];
        if (!ordered || !(last_submit <= std::numeric_limits<double>::max()))
            return unsortedInput();
        return true;
    };

    auto result = sweepQueues(input, method, options, config);
    sample_memory(0.0);
    if (result.ok())
        result.value().peakResidentBytes = peak_resident;
    return result;
}

Expected<StreamReplayResult>
replayStream(const trace::Trace &t, const std::string &method,
             const core::PredictorOptions &options,
             const StreamReplayConfig &config)
{
    if (!t.isSorted() || !t.submitTimesFinite())
        return unsortedInput();
    const trace::TraceColumns &jobs = t.columns();
    SweepInput input{t.site(), t.machine(), 0, t.queueTable(),
                     std::vector<uint64_t>(t.queueTable().size(), 0),
                     t.size(), t.queueIdsInOrder(), nullptr};
    for (uint32_t id : jobs.queueId)
        ++input.queueTotals[id];

    // Batches end on every progress boundary too, so a trace reports
    // progress every progressEveryJobs rows exactly.
    const size_t chunk = trace::StreamReadOptions{}.batchSize;
    const size_t every =
        config.replay.onProgress ? config.replay.progressEveryJobs : 0;
    size_t begin = 0;
    input.next = [&](trace::ColumnBatch *batch) -> Expected<bool> {
        size_t end = std::min(t.size(), begin + chunk);
        if (every > 0)
            end = std::min(end, (begin / every + 1) * every);
        batch->size = end - begin;
        batch->submit = jobs.submit.data() + begin;
        batch->wait = jobs.wait.data() + begin;
        batch->queueId = jobs.queueId.data() + begin;
        begin = end;
        return batch->size > 0;
    };
    return sweepQueues(input, method, options, config);
}

} // namespace sim
} // namespace qdel
