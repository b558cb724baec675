/**
 * @file
 * The offline replay driver and its two entry points,
 * ReplaySimulator::run() and replayStream().
 */

#include "sim/replay/replay_simulator.hh"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <future>
#include <limits>
#include <memory>
#include <numeric>
#include <optional>

#include "obs/domain_metrics.hh"
#include "obs/obs.hh"
#include "persist/checkpoint.hh"
#include "persist/io.hh"
#include "persist/state_codec.hh"
#include "sim/replay/evaluation.hh"
#include "sim/replay/stream_replay.hh"
#include "util/resource_usage.hh"
#include "util/thread_pool.hh"

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

namespace qdel {
namespace sim {

namespace {

/** Bumped when the replay snapshot payload changes incompatibly. v2:
 *  one echo vector and the QueueCore state layout (refit-dirty flag).
 *  v3: pending releases are (start, submit) pairs, not (start, wait).
 *  v4: the calibration window and each pending release's outcome. */
constexpr uint32_t kReplayStateVersion = 4;
constexpr char kReplayStateTag[] = "replay-driver";

/** Rows of a Trace per batch. Each batch costs a multi-queue sweep one
 *  fan-out and join, and a core 16 bytes a row of scratch
 *  (QueueCore::processRows). */
constexpr size_t kChunkRows = size_t(1) << 16;

/** RSS sampling cadence, in batches (plus once per shard change). */
constexpr size_t kRssSampleEveryBatches = 32;

/** Distinguishes spill files of concurrent sweeps in one process. */
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

/**
 * Identity of the input trace: size and a CRC over the raw bit
 * patterns of every (submit, wait) pair. Resuming against a different
 * trace would silently corrupt the evaluation, so decode rejects a
 * fingerprint mismatch.
 */
uint64_t
traceFingerprint(const trace::Trace &t)
{
    const trace::TraceColumns &jobs = t.columns();
    uint32_t crc = 0;
    for (size_t i = 0; i < t.size(); ++i) {
        const double pair[2] = {jobs.submit[i], jobs.wait[i]};
        crc = persist::crc32(pair, sizeof(pair), crc);
    }
    return (static_cast<uint64_t>(t.size()) << 32) ^ crc;
}

/** The config and probe echoed into a checkpoint, so a resume that
 *  asks a different question is refused. */
std::vector<double>
replayEcho(const ReplayConfig &config, const ReplayProbe &probe)
{
    std::vector<double> echo = {config.epochSeconds, config.trainFraction,
                                probe.captureSeries ? 1.0 : 0.0,
                                probe.seriesBegin, probe.seriesEnd,
                                probe.snapshotInterval};
    for (const auto &[q, upper] : probe.snapshotQuantiles)
        echo.insert(echo.end(), {q, upper ? 1.0 : 0.0});
    return echo;
}

Expected<std::string>
encodeReplayState(uint64_t fingerprint, const std::vector<double> &echo,
                  const QueueCore &queue)
{
    persist::StateWriter writer;
    persist::writeStateHeader(writer, kReplayStateTag, kReplayStateVersion);
    writer.u64(fingerprint);
    writer.doubles(echo);
    if (auto ok = queue.saveState(writer); !ok.ok())
        return ok.error();
    return writer.take();
}

/**
 * Inverse of encodeReplayState(). The core commits its state only when
 * the whole payload (including the predictor sub-payload) verified —
 * except the predictor itself, whose loadState() commits as soon as
 * *its* parse succeeds; the caller tracks that via @p predictor_loaded
 * and refuses to cold-start with a half-restored predictor.
 */
Expected<Unit>
decodeReplayState(const std::string &payload, uint64_t fingerprint,
                  const std::vector<double> &echo, size_t trace_size,
                  QueueCore &queue, bool *predictor_loaded)
{
    persist::StateReader reader(payload, "replay-snapshot");
    persist::readStateHeader(reader, kReplayStateTag, kReplayStateVersion);
    if (reader.u64() != fingerprint) {
        reader.fail(ParseError{"", 0, "fingerprint",
                               "checkpoint was written for a different "
                               "trace"});
    }
    if (reader.doubles() != echo) {
        reader.fail(ParseError{"", 0, "config",
                               "checkpoint was written under a different "
                               "replay config or probe"});
    }
    if (auto ok = queue.loadState(reader, predictor_loaded, trace_size);
        !ok.ok())
        return ok.error();
    return reader.expectEnd();
}

/** The rules of a queue of @p jobs jobs: its first trainFraction
 *  train. */
QueueCore::Rules
queueRules(const ReplayConfig &config, uint64_t jobs)
{
    return {config.epochSeconds,
            static_cast<uint64_t>(config.trainFraction *
                                  static_cast<double>(jobs))};
}

/** Hands out the next batch of rows; false at the end. */
using BatchSource = std::function<Expected<bool>(trace::ColumnBatch *)>;

/** @p t's rows from row @p begin, in batches of kChunkRows that also
 *  end on every multiple of each nonzero period in @p periods. */
BatchSource
traceRows(const trace::Trace &t, size_t begin, std::vector<size_t> periods)
{
    return [&jobs = t.columns(), begin, periods = std::move(periods)](
               trace::ColumnBatch *batch) mutable -> Expected<bool> {
        size_t end = std::min(jobs.size(), begin + kChunkRows);
        for (size_t period : periods) {
            if (period > 0)
                end = std::min(end, (begin / period + 1) * period);
        }
        batch->begin = begin;
        batch->size = end - begin;
        batch->submit = jobs.submit.data() + begin;
        batch->wait = jobs.wait.data() + begin;
        batch->queueId = jobs.queueId.data() + begin;
        begin = end;
        return batch->size > 0;
    };
}

/** Reusable per-queue (submit, wait) staging for multi-queue batches. */
struct QueueRun
{
    std::vector<double> submit;
    std::vector<double> wait;
};

/**
 * The one offline replay driver: feed @p next's batches of a @p jobs-row
 * input to @p cores (queue q's rows to cores[q]; a lone core takes every
 * row and never reads the queue ids), refusing the first batch that
 * breaks the input contract. After each batch, run @p after_batch with
 * the rows through it, then report progress if the batch passed a
 * multiple of the period; at the end, report unless the last batch did.
 * Worker threads start only to fan out: two or more cores and a
 * resolved @p threads above 1. @return The number of batches fed.
 */
Expected<size_t>
driveCores(const BatchSource &next, size_t jobs,
           const std::vector<QueueCore *> &cores, const ReplayConfig &config,
           long long threads,
           const std::function<Expected<Unit>(size_t)> &after_batch)
{
    const size_t every = config.onProgress ? config.progressEveryJobs : 0;
    size_t fed = 0;       // Rows through the last batch.
    size_t reported = 0;  // fed at the last report.
    auto report_progress = [&]() {
        ReplayProgress progress{fed, jobs, 0, 0};
        for (const QueueCore *core : cores) {
            progress.evaluated += core->evaluated();
            progress.correct += core->correct();
        }
        config.onProgress(progress);
        reported = fed;
    };

    std::optional<ThreadPool> pool;
    const size_t workers = ThreadPool::resolveThreadCount(threads);
    if (cores.size() > 1 && workers > 1)
        pool.emplace(workers);
    std::vector<QueueRun> runs(cores.size());
    std::vector<size_t> touched;

    size_t batches = 0;
    double last_submit = std::numeric_limits<double>::lowest();
    trace::ColumnBatch batch;
    while (true) {
        auto more = next(&batch);
        if (!more.ok())
            return more.error();
        if (!more.value())
            break;

        // One comparison a row on the submit column: NaN and -inf fail
        // it (the first row meets lowest(), not -inf), and +inf can
        // only end a batch that passes it.
        bool ordered = batch.submit[0] >= last_submit;
        for (size_t row = 1; row < batch.size; ++row)
            ordered &= batch.submit[row] >= batch.submit[row - 1];
        last_submit = batch.submit[batch.size - 1];
        if (!ordered ||
            !(last_submit <= std::numeric_limits<double>::max())) {
            return ParseError{"", 0, "trace",
                              "replay input must be sorted by submission "
                              "time, with no non-finite submit time"};
        }

        if (cores.size() == 1) {
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
            if (touched.size() == 1 || !pool) {
                for (size_t q : touched)
                    process(q);
            } else {
                std::vector<std::future<void>> joins;
                for (size_t q : touched)
                    joins.push_back(pool->submit([&, q] { process(q); }));
                for (auto &join : joins)
                    join.get();
            }
            for (size_t q : touched) {
                runs[q].submit.clear();
                runs[q].wait.clear();
            }
        }
        fed = batch.begin + batch.size;
        ++batches;
        QDEL_OBS(obs::replayMetrics().batches.inc());
        if (auto ok = after_batch(fed); !ok.ok())
            return ok.error();
        if (every > 0 && fed / every > batch.begin / every)
            report_progress();
    }
    if (every > 0 && reported != fed)
        report_progress();
    return batches;
}

/** What a sweep reads: labels, a queue table, each queue's job count,
 *  the result order, its batches and the step after each. */
struct SweepInput
{
    const std::string &site;
    const std::string &machine;
    size_t shards = 0;
    const std::vector<std::string> &queueNames;
    std::vector<uint64_t> queueTotals;
    size_t jobs = 0;
    std::vector<uint32_t> resultOrder;
    BatchSource next;
    std::function<Expected<Unit>(size_t)> afterBatch;
};

/** Build one factory predictor and one spill-backed core per queue,
 *  drive them over the input, and collect the queues that held jobs. */
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
    std::vector<QueueCore *> driven;
    for (size_t q = 0; q < n_queues; ++q) {
        auto predictor = core::tryMakePredictor(method, options);
        if (!predictor.ok())
            return predictor.error();
        predictors.push_back(std::move(predictor).value());
        cores.push_back(std::make_unique<QueueCore>(
            *predictors.back(),
            queueRules(config.replay, input.queueTotals[q]), nullptr,
            spillFilePath(spill_dir, serial, q),
            config.spillThresholdDoubles));
        driven.push_back(cores.back().get());
    }

    auto batches = driveCores(input.next, input.jobs, driven, config.replay,
                              config.threads, input.afterBatch);
    if (!batches.ok())
        return batches.error();

    StreamReplayResult result;
    result.site = input.site;
    result.machine = input.machine;
    result.shards = input.shards;
    result.batches = batches.value();
    for (uint32_t q : input.resultOrder) {
        result.totalJobs += cores[q]->submits();
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

Expected<Unit>
ReplayConfig::validate() const
{
    // Negated comparisons so NaN fails validation too.
    if (!(trainFraction >= 0.0 && trainFraction < 1.0)) {
        return ParseError{"", 0, "trainFraction",
                          "must lie in [0, 1), got " +
                              std::to_string(trainFraction)};
    }
    if (!(epochSeconds >= 0.0) || !std::isfinite(epochSeconds)) {
        return ParseError{"", 0, "epochSeconds",
                          "must be finite and >= 0, got " +
                              std::to_string(epochSeconds)};
    }
    return Unit{};
}

Expected<Unit>
ReplayCheckpointOptions::validate() const
{
    if (enabled() && keepSnapshots == 0) {
        return ParseError{dir, 0, "keepSnapshots",
                          "must retain at least one snapshot"};
    }
    return Unit{};
}

Expected<ReplayResult>
ReplaySimulator::run(const trace::Trace &t, core::Predictor &predictor,
                     const ReplayProbe &probe,
                     const ReplayCheckpointOptions &ckpt) const
{
    if (auto valid = config_.validate(); !valid.ok())
        return valid.error();
    if (auto valid = probe.validate(); !valid.ok())
        return valid.error();
    if (auto valid = ckpt.validate(); !valid.ok())
        return valid.error();
    if (t.empty())
        return ReplayResult{};

    // --- Crash safety -------------------------------------------------
    QueueCore queue(predictor, queueRules(config_, t.size()), &probe);
    std::optional<persist::CheckpointManager> manager;
    persist::CheckpointConfig cc;
    uint64_t fingerprint = 0;
    if (ckpt.enabled()) {
        fingerprint = traceFingerprint(t);
        cc.dir = ckpt.dir;
        cc.keepSnapshots = ckpt.keepSnapshots;
        auto opened = persist::CheckpointManager::open(cc);
        if (!opened.ok())
            return opened.error();
        manager.emplace(std::move(opened).value());
    }
    const std::vector<double> echo = replayEcho(config_, probe);

    std::vector<std::string> notes;
    size_t resumed_from = 0;
    if (manager && manager->hasExistingState()) {
        if (!ckpt.resume) {
            return ParseError{
                ckpt.dir, 0, "checkpoint-dir",
                "directory already contains checkpoint state; "
                "resume it (--resume) or use a fresh directory"};
        }
        bool predictor_loaded = false;
        // A snapshot written for a different trace or under a
        // different config is a mismatch, not corruption: the ladder
        // must not degrade it into a silent cold start.
        std::optional<ParseError> incompatible;
        auto report = persist::recoverState(
            cc,
            [&](const std::string &payload) {
                auto decoded = decodeReplayState(
                    payload, fingerprint, echo, t.size(), queue,
                    &predictor_loaded);
                if (!decoded.ok() && !incompatible &&
                    (decoded.error().field == "fingerprint" ||
                     decoded.error().field == "config")) {
                    incompatible = decoded.error();
                }
                return decoded;
            },
            // The trace is the replay's input log: resume is
            // snapshot-only, and the WAL segments are empty.
            nullptr);
        if (!report.ok())
            return report.error();
        if (incompatible)
            return *incompatible;
        notes.push_back(std::string("recovery source: ") +
                        persist::recoverySourceName(report.value().source));
        notes.insert(notes.end(), report.value().notes.begin(),
                     report.value().notes.end());
        if (report.value().source == persist::RecoverySource::ColdStart &&
            predictor_loaded) {
            return ParseError{
                ckpt.dir, 0, "recovery",
                "no snapshot fully applied but the predictor was "
                "partially restored; use a fresh predictor instance"};
        }
        resumed_from = queue.submits();
    } else if (manager && ckpt.resume) {
        notes.push_back("resume requested but directory is pristine; "
                        "cold start");
    }

    auto write_checkpoint = [&]() -> Expected<Unit> {
        auto payload = encodeReplayState(fingerprint, echo, queue);
        if (!payload.ok())
            return payload.error();
        return manager->checkpoint(payload.value());
    };

    // The opening checkpoint both verifies the predictor supports
    // persistence before hours of replay are invested and rotates any
    // recovered generation to a clean snapshot + fresh WAL segment.
    if (manager) {
        if (auto ok = write_checkpoint(); !ok.ok())
            return ok.error();
    }

    // Batches end on every progress and checkpoint boundary, and the
    // step after each writes the checkpoints in between.
    const size_t checkpoint_every = manager ? ckpt.intervalJobs : 0;
    auto fed = driveCores(
        traceRows(t, queue.submits(),
                  {config_.progressEveryJobs, checkpoint_every}),
        t.size(), {&queue}, config_, 1, [&](size_t rows) -> Expected<Unit> {
            if (checkpoint_every > 0 && rows % checkpoint_every == 0 &&
                rows < t.size())
                return write_checkpoint();
            return Unit{};
        });
    if (!fed.ok())
        return fed.error();

    // Drain the window for the figure/table probes, and let the last
    // releases feed the history so snapshots after the final arrival
    // stay live. Idempotent on resume: a re-drained run finds every
    // event at or before the window end already consumed.
    if (probe.captureSeries || !probe.snapshotQuantiles.empty())
        queue.advanceTo(probe.seriesEnd);

    // Closing checkpoint: a resume of a finished run replays nothing.
    if (manager) {
        if (auto ok = write_checkpoint(); !ok.ok())
            return ok.error();
    }

    auto result = queue.result();
    if (result.ok()) {
        result.value().resumedFromJob = resumed_from;
        result.value().recoveryNotes = std::move(notes);
    }
    return result;
}

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
                     reader.jobCount(), {},
                     [&](trace::ColumnBatch *batch) {
                         return reader.next(batch);
                     },
                     [&](size_t) -> Expected<Unit> {
                         // Every row handed out so far is evaluated.
                         ++batches;
                         if (reader.currentShard() != last_shard ||
                             batches % kRssSampleEveryBatches == 0) {
                             last_shard = reader.currentShard();
                             sample_memory(1.0);
                         }
                         return Unit{};
                     }};
    input.resultOrder.resize(reader.queueNames().size());
    std::iota(input.resultOrder.begin(), input.resultOrder.end(), 0u);

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
    SweepInput input{t.site(), t.machine(), 0, t.queueTable(),
                     std::vector<uint64_t>(t.queueTable().size(), 0),
                     t.size(), t.queueIdsInOrder(),
                     traceRows(t, 0, {config.replay.progressEveryJobs}),
                     [](size_t) -> Expected<Unit> { return Unit{}; }};
    for (uint32_t id : t.columns().queueId)
        ++input.queueTotals[id];
    return sweepQueues(input, method, options, config);
}

} // namespace sim
} // namespace qdel
