/**
 * @file
 * The per-queue replay sweep: evaluate a predictor method over every
 * queue of an in-memory Trace or of a sharded .qtc stream (read without
 * materializing it, in bounded resident memory), with batched SoA
 * predictor calls and per-queue fan-out across a thread pool.
 *
 * Semantics contract: for every queue, the per-queue ReplayResult is
 * *byte-identical* to what ReplaySimulator::run() produces on the
 * in-memory trace filtered to that queue (no probe, no checkpointing)
 * — same evaluated/correct/infinite counts, same bitwise medianRatio —
 * for any batch size, shard size, and thread count. This holds by
 * construction: both run one sim::QueueCore per queue, whose
 * processRows() gives the same result however the rows are chunked,
 * and each queue's job total (counted in a Trace, carried by a .qtcs
 * manifest) fixes its training prefix before its first batch arrives.
 * The input contract is run()'s too: submit times sorted and finite.
 *
 * Parallelism: each queue owns an independent replay core; every
 * batch is scattered into per-queue (submit, wait) runs and the
 * touched queues are evaluated concurrently, joining before the next
 * batch (whose arrival invalidates a reader's mapped columns). Queue
 * cores never share mutable state and results are merged in a fixed
 * queue order, so output is thread-count independent.
 *
 * Memory: one batch + per-queue predictor history + spill-backed
 * accuracy ratios (stats::SpillDoubles). For a stream nothing scales
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

/** Parameters of a replay sweep. */
struct StreamReplayConfig
{
    /**
     * Refit period and per-queue warm-up prefix. The progress
     * callback sees the whole sweep, its totals and tallies summed
     * over the queues: after each batch that passes a multiple of
     * progressEveryJobs rows (a Trace's batches end on those
     * multiples), and at the end unless that batch already reported.
     */
    ReplayConfig replay;
    /** Worker threads; <= 0 resolves via ThreadPool defaults. */
    long long threads = 1;
    /**
     * Directory for ratio spill files (empty = system temp dir) and
     * the in-RAM ratio cap per queue before spilling (doubles).
     */
    std::string spillDir;
    size_t spillThresholdDoubles = size_t(1) << 25;
};

/** Replay outcome of a single queue within the stream. */
struct QueueStreamResult
{
    std::string queue;     //!< Queue name (global table entry).
    ReplayResult result;   //!< Identical to the in-memory replay.
    size_t trims = 0;      //!< Change points the predictor detected.
};

/** Whole-sweep outcome: per-queue results plus input accounting. */
struct StreamReplayResult
{
    std::string site;
    std::string machine;
    size_t totalJobs = 0;   //!< Rows replayed (all queues).
    size_t batches = 0;     //!< Batches fed to the queue cores.
    size_t shards = 0;      //!< Shards in the stream (0 for a Trace).
    size_t peakResidentBytes = 0;  //!< Max sampled RSS during a stream.
    /** One entry per queue that holds jobs: global queue-id order for
     *  a stream, Trace::queueIdsInOrder() order for a Trace. */
    std::vector<QueueStreamResult> queues;
};

/**
 * Stream @p reader from its current position (callers normally pass a
 * freshly opened reader) and evaluate @p method over every queue.
 *
 * @param reader  Streaming source (consumed to end of stream).
 * @param method  Predictor factory name; one fresh predictor per queue.
 * @param options Quantile/confidence options shared by all queues.
 * @param config  Sweep parameters.
 * @return Per-queue results, or the first validation, stream or
 *         spill error, or the submission-order error at the first row
 *         that breaks the input contract.
 */
Expected<StreamReplayResult>
replayStream(trace::StreamingTraceReader &reader, const std::string &method,
             const core::PredictorOptions &options,
             const StreamReplayConfig &config = {});

/** The same sweep over @p t's columns, in batches of the reader's
 *  default size; refuses a trace that breaks the input contract. */
Expected<StreamReplayResult>
replayStream(const trace::Trace &t, const std::string &method,
             const core::PredictorOptions &options,
             const StreamReplayConfig &config = {});

} // namespace sim
} // namespace qdel

#endif // QDEL_SIM_REPLAY_STREAM_REPLAY_HH
