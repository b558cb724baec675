/**
 * @file
 * Trace-replay, event-driven evaluation simulator (paper Section 5.1).
 *
 * Replays a job trace against a Predictor under the exact information
 * constraints of a live deployment:
 *  - a job's wait time enters the predictor's history only when the
 *    job is released for execution (submit + wait), never earlier;
 *  - the prediction given to an arriving job is the value computed at
 *    the last refit epoch (default: every 300 virtual seconds,
 *    modeling periodic batch-queue "dumps"; epoch 0 refits before
 *    every arrival);
 *  - the first trainFraction of jobs (default 10%) only warms up the
 *    history and is not scored.
 *
 * For each scored job the simulator records success (prediction >=
 * actual wait, the paper's correctness criterion) and the ratio
 * actual/predicted whose median is the paper's accuracy measure
 * (Table 4).
 *
 * The rules live in QueueCore (queue_core.hh), which the streaming
 * replay and the online registry run too; the simulator feeds the
 * trace to one core and adds validation, the progress callback and
 * the checkpoint/recovery ladder around it.
 */

#ifndef QDEL_SIM_REPLAY_REPLAY_SIMULATOR_HH
#define QDEL_SIM_REPLAY_REPLAY_SIMULATOR_HH

#include <cstddef>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "core/predictor.hh"
#include "sim/replay/queue_core.hh"
#include "trace/trace.hh"
#include "util/expected.hh"

namespace qdel {
namespace sim {

/** One periodic progress sample of an in-flight replay. */
struct ReplayProgress
{
    size_t jobsProcessed = 0;  //!< Jobs stepped through so far.
    size_t totalJobs = 0;      //!< Jobs in the trace.
    size_t evaluated = 0;      //!< Scored predictions so far.
    size_t correct = 0;        //!< Correct predictions so far.
};

/** Replay parameters (paper defaults). */
struct ReplayConfig
{
    double epochSeconds = 300.0;   //!< Refit period; 0 = refit per job.
    double trainFraction = 0.10;   //!< Unscored warm-up prefix.

    /**
     * Invoke onProgress every progressEveryJobs processed jobs (and
     * once at the end). 0 disables. Purely observational: no effect
     * on results, checkpoints, or resume equivalence.
     */
    size_t progressEveryJobs = 0;
    std::function<void(const ReplayProgress &)> onProgress = nullptr;

    /** Check trainFraction in [0, 1) and epochSeconds finite >= 0. */
    Expected<Unit> validate() const;
};

/**
 * Crash-safety options for a replay run. When a directory is set, the
 * simulator snapshots its full state (driver position, counters,
 * pending releases, probe captures, and the predictor via saveState())
 * every intervalJobs jobs and — with resume = true — restarts from the
 * newest recoverable snapshot, producing byte-identical results to an
 * uninterrupted run. The trace itself is the replay's input log, so
 * checkpoints are snapshot-only: nothing is WAL-logged between them,
 * and each checkpoint leaves a header-only WAL segment behind.
 */
struct ReplayCheckpointOptions
{
    std::string dir;            //!< Checkpoint directory; empty = off.
    size_t intervalJobs = 5000; //!< Snapshot period in processed jobs;
                                //!< 0 = only the initial/final snapshot.
    bool resume = false;        //!< Resume from existing state; without
                                //!< this, existing state is an error.
    size_t keepSnapshots = 2;   //!< Snapshot generations to retain.

    bool enabled() const { return !dir.empty(); }

    /** Check keepSnapshots >= 1 (only when enabled). */
    Expected<Unit> validate() const;
};

/** Results of one replay run. */
struct ReplayResult
{
    size_t totalJobs = 0;       //!< Jobs in the trace.
    size_t trainingJobs = 0;    //!< Unscored warm-up jobs.
    size_t evaluatedJobs = 0;   //!< Scored predictions.
    size_t correct = 0;         //!< Predictions >= actual wait.
    size_t infinitePredictions = 0; //!< Scored jobs given no finite bound
                                    //!< (counted correct, ratio skipped).

    /** Fraction of scored predictions that were correct. */
    double correctFraction = 0.0;

    /** Median of actual/predicted over scored finite predictions. */
    double medianRatio = 0.0;

    /** Captured bound series (when the probe asked for it). */
    std::vector<SeriesPoint> series;

    /** Captured quantile snapshots (when the probe asked for them). */
    std::vector<QuantileSnapshot> snapshots;

    /** Job index the run resumed from (0 = ran from the start). */
    size_t resumedFromJob = 0;

    /** Recovery-ladder decisions (empty when checkpointing was off). */
    std::vector<std::string> recoveryNotes;
};

/** Fill @p result's training and scored-job fields (counts, correct
 *  fraction, median ratio) from a core that has consumed its queue. */
Expected<Unit> collectScores(QueueCore &queue, ReplayResult *result);

/** See file comment. */
class ReplaySimulator
{
  public:
    /** Store @p config; validation happens in run(). */
    explicit ReplaySimulator(ReplayConfig config = {})
        : config_(std::move(config))
    {
    }

    /**
     * Replay @p t against @p predictor.
     *
     * @param t         Trace sorted by submission time.
     * @param predictor Freshly constructed predictor (the simulator
     *                  owns its lifecycle calls, not its lifetime).
     * @param probe     Optional instrumentation.
     * @param ckpt      Optional crash-safety (see the struct comment).
     * @return The replay result, or a ParseError when the stored
     *         config, @p probe, or @p ckpt fails validation, the trace
     *         is not sorted by submission time, the checkpoint
     *         directory holds state but resume was not requested, or a
     *         persistence write fails mid-run.
     */
    Expected<ReplayResult> run(const trace::Trace &t,
                               core::Predictor &predictor,
                               const ReplayProbe &probe = {},
                               const ReplayCheckpointOptions &ckpt = {}) const;

  private:
    ReplayConfig config_;
};

} // namespace sim
} // namespace qdel

#endif // QDEL_SIM_REPLAY_REPLAY_SIMULATOR_HH
