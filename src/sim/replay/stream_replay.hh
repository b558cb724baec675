/**
 * @file
 * The keyed replay sweep: evaluate a predictor method over every key
 * of an in-memory Trace or of a sharded .qtc stream (read without
 * materializing it, in bounded resident memory), with batched SoA
 * predictor calls and per-key fan-out across a thread pool. A key is a
 * queue or, for a Trace, the (queue, trace::procBucketFor(procs)) pair
 * the online BoundRegistry keys by (paper §6.2).
 *
 * Semantics contract: for every key, the ReplayResult is
 * *byte-identical* to what ReplaySimulator::run() produces on the
 * in-memory trace filtered to that key (filterByQueue(), then
 * filterByProcRange() for a bin; no probe, no checkpointing) — same
 * evaluated/correct/infinite counts, same bitwise medianRatio — for any
 * batch size, shard size, and thread count. This holds by construction:
 * both run one driver (replay_simulator.cc) that feeds one
 * sim::QueueCore per key, whose processRows() gives the same result
 * however the rows are chunked, and each key's job total (counted in a
 * Trace, carried by a .qtcs manifest) fixes its training prefix before
 * its first batch arrives. The input contract is run()'s too: submit
 * times sorted and finite, over every row, selected or not.
 *
 * Parallelism: each key owns an independent replay core; every batch
 * is scattered into per-key (submit, wait) runs and the touched keys
 * are evaluated concurrently, joining before the next batch (whose
 * arrival invalidates a reader's mapped columns). Cores never share
 * mutable state and results are merged in a fixed key order, so output
 * is thread-count independent.
 *
 * Memory: one batch + per-key predictor history + spill-backed
 * accuracy ratios (stats::SpillDoubles). For a stream nothing scales
 * with trace length, which is what lets a 10^9-job replay fit under
 * 1 GiB resident.
 */

#ifndef QDEL_SIM_REPLAY_STREAM_REPLAY_HH
#define QDEL_SIM_REPLAY_STREAM_REPLAY_HH

#include <optional>
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
     * Refit period and per-key warm-up prefix. The progress callback
     * sees the whole sweep, its totals and tallies summed over the
     * keys, under ReplayConfig's rule (a Trace's batches end on the
     * multiples of progressEveryJobs, a stream's need not).
     */
    ReplayConfig replay;
    /** Worker threads; <= 0 resolves via ThreadPool defaults. None
     *  start for one core or a resolved count of 1. */
    long long threads = 1;
    /** Key by (queue, bin), not by queue; a Trace only. */
    bool byProcs = false;
    /** Replay this queue only (unset = every queue). */
    std::optional<std::string> queue;
    /**
     * Directory for ratio spill files (empty = system temp dir) and
     * the in-RAM ratio cap per queue before spilling (doubles).
     */
    std::string spillDir;
    size_t spillThresholdDoubles = size_t(1) << 25;
};

/** Replay outcome of a single key within the sweep. */
struct QueueStreamResult
{
    std::string queue;     //!< Queue name (global table entry).
    int bucket = -1;       //!< Bin under byProcs, else -1.
    ReplayResult result;   //!< Identical to the in-memory replay.
    size_t trims = 0;      //!< Change points the predictor detected.
};

/** Whole-sweep outcome: per-queue results plus input accounting. */
struct StreamReplayResult
{
    std::string site;
    std::string machine;
    size_t totalJobs = 0;   //!< Rows replayed (all keys).
    size_t batches = 0;     //!< Batches fed to the queue cores.
    size_t shards = 0;      //!< Shards in the stream (0 for a Trace).
    size_t peakResidentBytes = 0;  //!< Max sampled RSS during a stream.
    /** One entry per replayed key that holds jobs: global queue-id
     *  order for a stream, Trace::queueIdsInOrder() order for a Trace;
     *  bins in order. */
    std::vector<QueueStreamResult> queues;
};

/**
 * Stream @p reader from its current position (callers normally pass a
 * freshly opened reader) and evaluate @p method over every queue.
 *
 * @param reader  Streaming source (consumed to end of stream).
 * @param method  Predictor factory name; one fresh predictor per key.
 * @param options Quantile/confidence options shared by all keys.
 * @param config  Sweep parameters; byProcs is refused.
 * @return Per-queue results, or the first validation, stream or
 *         spill error, or the submission-order error at the first row
 *         that breaks the input contract.
 */
Expected<StreamReplayResult>
replayStream(trace::StreamingTraceReader &reader, const std::string &method,
             const core::PredictorOptions &options,
             const StreamReplayConfig &config = {});

/** The same sweep over @p t's columns, in batches of 65,536 rows;
 *  refuses a trace that breaks the input contract. */
Expected<StreamReplayResult>
replayStream(const trace::Trace &t, const std::string &method,
             const core::PredictorOptions &options,
             const StreamReplayConfig &config = {});

/** @p queue's paper Table 5-7 row from a byProcs sweep: one result
 *  per bin, null where the paper prints "-" (under @p min_jobs jobs,
 *  or nothing scored). */
std::vector<const ReplayResult *>
procRow(const StreamReplayResult &sweep, const std::string &queue,
        size_t min_jobs);

} // namespace sim
} // namespace qdel

#endif // QDEL_SIM_REPLAY_STREAM_REPLAY_HH
