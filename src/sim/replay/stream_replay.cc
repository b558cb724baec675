/**
 * @file
 * Implementation of the out-of-core streaming replay evaluator.
 */

#include "sim/replay/stream_replay.hh"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <future>
#include <memory>

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

} // namespace

Expected<Unit>
StreamReplayConfig::validate() const
{
    ReplayConfig replay;
    replay.epochSeconds = epochSeconds;
    replay.trainFraction = trainFraction;
    if (auto ok = replay.validate(); !ok.ok())
        return ok.error();
    if (batchSize == 0) {
        return ParseError{"", 0, "batchSize",
                          "must be at least 1 row per batch"};
    }
    return Unit{};
}

Expected<StreamReplayResult>
replayStream(trace::StreamingTraceReader &reader, const std::string &method,
             const core::PredictorOptions &options,
             const StreamReplayConfig &config)
{
    if (auto valid = config.validate(); !valid.ok())
        return valid.error();

    std::string spill_dir = config.spillDir;
    if (spill_dir.empty()) {
        std::error_code ec;
        auto tmp = std::filesystem::temp_directory_path(ec);
        spill_dir = ec ? "." : tmp.string();
    }
    const uint64_t serial =
        spillSerial.fetch_add(1, std::memory_order_relaxed);

    const auto &queue_names = reader.queueNames();
    const auto &queue_totals = reader.queueJobCounts();
    const size_t n_queues = queue_names.size();

    std::vector<std::unique_ptr<core::Predictor>> predictors;
    std::vector<std::unique_ptr<QueueCore>> cores;
    for (size_t q = 0; q < n_queues; ++q) {
        auto predictor = core::tryMakePredictor(method, options);
        if (!predictor.ok())
            return predictor.error();
        predictors.push_back(std::move(predictor).value());
        const auto training = static_cast<uint64_t>(
            config.trainFraction * static_cast<double>(queue_totals[q]));
        cores.push_back(std::make_unique<QueueCore>(
            *predictors.back(),
            QueueCore::Rules{config.epochSeconds, training}, nullptr,
            spillFilePath(spill_dir, serial, q),
            config.spillThresholdDoubles));
    }

    StreamReplayResult result;
    result.site = reader.site();
    result.machine = reader.machine();
    result.shards = reader.shardCount();

    ThreadPool pool(ThreadPool::resolveThreadCount(config.threads));
    std::vector<QueueRun> runs(n_queues);
    std::vector<size_t> touched;
    touched.reserve(n_queues);

    size_t shards_completed = 0;
    size_t last_shard = 0;
    auto sample_memory = [&]() {
        const size_t resident = util::currentResidentBytes();
        result.peakResidentBytes =
            std::max(result.peakResidentBytes, resident);
        QDEL_OBS({
            obs::replayMetrics().residentBytes.set(
                static_cast<double>(resident));
            obs::replayMetrics().streamShardLag.set(static_cast<double>(
                std::min(reader.currentShard() + 1, reader.shardCount()) -
                shards_completed));
        });
    };

    trace::ColumnBatch batch;
    while (true) {
        auto more = reader.next(&batch);
        if (!more.ok())
            return more.error();
        if (!more.value())
            break;

        result.totalJobs += batch.size;
        ++result.batches;
        QDEL_OBS(obs::replayMetrics().batches.inc());

        if (n_queues == 1) {
            // Single queue: evaluate straight off the mapped columns.
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

        const size_t shard = reader.currentShard();
        if (shard != last_shard) {
            // All rows of every shard before `shard` are evaluated
            // (the join above is a barrier).
            shards_completed = shard;
            last_shard = shard;
            sample_memory();
        } else if (result.batches % kRssSampleEveryBatches == 0) {
            sample_memory();
        }
    }

    shards_completed = reader.shardCount();
    sample_memory();

    result.queues.resize(n_queues);
    for (size_t q = 0; q < n_queues; ++q) {
        auto scored = cores[q]->result();
        if (!scored.ok())
            return scored.error();
        QueueStreamResult &out = result.queues[q];
        out.queue = queue_names[q];
        out.result = std::move(scored).value();
        out.trims = predictorTrimCount(*predictors[q]);
    }
    return result;
}

} // namespace sim
} // namespace qdel
