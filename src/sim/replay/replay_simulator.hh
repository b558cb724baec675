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
 * The rules live in QueueCore (queue_core.hh). run() and replayStream()
 * (stream_replay.hh) feed their cores through one driver, so they agree
 * by construction; run() builds one core and adds validation, the probe
 * drain and the checkpoint/recovery ladder around it.
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
     * Invoke onProgress after each batch that passes a multiple of
     * progressEveryJobs processed jobs, and at the end unless that
     * batch did (a resumed run counts from its resume point). 0
     * disables. Purely observational: no effect on results,
     * checkpoints, or resume equivalence.
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
     *         breaks the input contract (submit times sorted and
     *         finite), the checkpoint
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
