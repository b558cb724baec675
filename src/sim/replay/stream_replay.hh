/**
 * @file
 * Out-of-core streaming replay: evaluate a predictor method over a
 * sharded .qtc trace without materializing it, in bounded resident
 * memory, with batched SoA predictor calls and per-queue fan-out
 * across a thread pool.
 *
 * Semantics contract: for every queue in the stream, the per-queue
 * ReplayResult is *byte-identical* to what ReplaySimulator::run()
 * produces on the in-memory trace filtered to that queue (no probe,
 * no checkpointing) — same evaluated/correct/infinite counts, same
 * bitwise medianRatio — for any batch size, shard size, and thread
 * count. This holds by construction — both run one sim::QueueCore per
 * queue — given three properties of that core:
 *
 *  1. *Frozen bounds between events.* A predictor's upperBound() only
 *     changes at refit() — including the refit a change-point trim
 *     issues from inside observe(). Between two consecutive events
 *     (pending release or epoch tick) the bound cannot move, so a run
 *     of jobs whose submits all precede the next event is scored with
 *     one virtual call (Predictor::scoreBatch) instead of one per job.
 *
 *  2. *Order-preserving batched observes.* Releases that fire between
 *     two epoch ticks are popped from the pending heap in exactly the
 *     scalar order and handed to Predictor::observeBatch, which is
 *     contractually equivalent to element-wise observe() — trims and
 *     all.
 *
 *  3. *Pre-computed training splits.* The .qtcs manifest carries
 *     per-queue job totals, so each queue's training prefix
 *     (trainFraction * queue total) is known before the first batch
 *     arrives, exactly as if the whole queue sub-trace were in memory.
 *
 * Parallelism: each queue owns an independent replay core; every
 * reader batch is scattered into per-queue (submit, wait) runs and the
 * touched queues are evaluated concurrently, joining before the next
 * batch (whose arrival invalidates the mapped columns). Queue cores
 * never share mutable state and results are merged in global queue-id
 * order, so output is thread-count independent.
 *
 * Memory: one mapped shard (reader) + per-queue predictor history +
 * spill-backed accuracy ratios (stats::SpillDoubles). Nothing scales
 * with trace length, which is what lets a 10^9-job replay fit under
 * 1 GiB resident.
 */

#ifndef QDEL_SIM_REPLAY_STREAM_REPLAY_HH
#define QDEL_SIM_REPLAY_STREAM_REPLAY_HH

#include <string>
#include <vector>

#include "core/predictor_factory.hh"
#include "sim/replay/replay_simulator.hh"
#include "trace/qtc_stream.hh"
#include "util/expected.hh"

namespace qdel {
namespace sim {

/** Parameters of a streaming replay run. */
struct StreamReplayConfig
{
    /** Refit period in virtual seconds; 0 = refit per job. */
    double epochSeconds = 300.0;
    /** Unscored warm-up prefix, per queue. */
    double trainFraction = 0.10;
    /** Rows per reader batch. */
    size_t batchSize = size_t(1) << 16;
    /** Worker threads; <= 0 resolves via ThreadPool defaults. */
    long long threads = 1;
    /** Verify each shard's CRC on load. */
    bool verifyCrc = true;
    /**
     * Directory for ratio spill files (empty = system temp dir) and
     * the in-RAM ratio cap per queue before spilling (doubles).
     */
    std::string spillDir;
    size_t spillThresholdDoubles = size_t(1) << 25;

    /** Same domain checks as ReplayConfig, plus batchSize >= 1. */
    Expected<Unit> validate() const;
};

/** Replay outcome of a single queue within the stream. */
struct QueueStreamResult
{
    std::string queue;     //!< Queue name (global table entry).
    ReplayResult result;   //!< Identical to the in-memory replay.
    size_t trims = 0;      //!< Change points the predictor detected.
};

/** Whole-stream outcome: per-queue results plus stream accounting. */
struct StreamReplayResult
{
    std::string site;
    std::string machine;
    size_t totalJobs = 0;   //!< Rows streamed (all queues).
    size_t batches = 0;     //!< Reader batches consumed.
    size_t shards = 0;      //!< Shards in the stream.
    size_t peakResidentBytes = 0;  //!< Max sampled RSS during the run.
    std::vector<QueueStreamResult> queues;  //!< Global queue-id order.
};

/**
 * Stream @p reader from its current position (callers normally pass a
 * freshly opened reader) and evaluate @p method over every queue.
 *
 * @param reader  Streaming source (consumed to end of stream).
 * @param method  Predictor factory name; one fresh predictor per queue.
 * @param options Quantile/confidence options shared by all queues.
 * @param config  Streaming replay parameters.
 * @return Per-queue results in global queue-id order, or the first
 *         validation/stream/spill error.
 */
Expected<StreamReplayResult>
replayStream(trace::StreamingTraceReader &reader, const std::string &method,
             const core::PredictorOptions &options,
             const StreamReplayConfig &config = {});

} // namespace sim
} // namespace qdel

#endif // QDEL_SIM_REPLAY_STREAM_REPLAY_HH
