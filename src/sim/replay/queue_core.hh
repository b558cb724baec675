/**
 * @file
 * The paper's Section 5.1 replay protocol for one queue, implemented
 * once: ReplaySimulator, the streaming replay and the online bound
 * registry all drive a QueueCore, so the served calibration equals the
 * offline table by construction.
 *
 *  - *Observe at release.* A wait enters the history only when its job
 *    starts (submit + wait): offline from a heap ordered by release
 *    time, live as a Start event.
 *  - *Refit on epochs*, every epochSeconds of virtual time from the
 *    first submit (0 = before every submit). At one instant a release
 *    fires before an epoch tick, and both before a submit. An epoch
 *    that follows no new observation skips its refit: the bound is a
 *    function of the history, so it would come out unchanged.
 *  - *Train on a prefix.* The first trainingJobs submits are unscored;
 *    the first scored one runs finalizeTraining() and a refit.
 *  - *Score the frozen bound.* A scored job is correct when the bound
 *    in force at its submit is >= its wait; an infinite bound counts
 *    correct and contributes no accuracy ratio.
 *
 * processRows() feeds jobs with known waits (the replays), batching a
 * run of submits that sees no event into one scoreBatch() call and the
 * releases before a tick into one observeBatch() — both equal to
 * per-job calls, so chunking never changes results. The live calls
 * (the registry) take events: a Start at T fires the epochs strictly
 * before T, a Submit at T those at or before T — in eventsFromJobs'
 * order, exactly the offline order (DESIGN.md §6: contract, caveats).
 */

#ifndef QDEL_SIM_REPLAY_QUEUE_CORE_HH
#define QDEL_SIM_REPLAY_QUEUE_CORE_HH

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "core/predictor.hh"
#include "stats/spill_doubles.hh"
#include "util/expected.hh"

namespace qdel {

namespace persist {
class StateWriter;
class StateReader;
} // namespace persist

namespace sim {

/** A sampled point of the prediction time series (for the figures). */
struct SeriesPoint
{
    double time = 0.0;   //!< Virtual time of the sample.
    double value = 0.0;  //!< Upper bound in force at that time.
};

/** A multi-quantile snapshot row (paper Table 8). */
struct QuantileSnapshot
{
    double time = 0.0;            //!< Virtual time of the snapshot.
    std::vector<double> values;   //!< One bound per requested quantile.
};

/** Optional instrumentation of a replay run. */
struct ReplayProbe
{
    /** Record the in-force bound at every epoch inside [begin, end). */
    bool captureSeries = false;
    double seriesBegin = 0.0;
    double seriesEnd = 0.0;

    /**
     * Also capture multi-quantile snapshots every snapshotInterval
     * seconds inside the window. Entries are (quantile, upper?) pairs,
     * evaluated through Predictor::boundAt().
     */
    std::vector<std::pair<double, bool>> snapshotQuantiles;
    double snapshotInterval = 7200.0;

    /**
     * Check the instrumentation is runnable: a finite, positive
     * snapshotInterval when snapshots are requested (a non-positive
     * interval would re-arm the snapshot tick at the same virtual time
     * forever), quantiles in (0, 1), and a finite window.
     */
    Expected<Unit> validate() const;
};

/** See file comment. */
class QueueCore
{
  public:
    /** The per-queue protocol parameters. */
    struct Rules
    {
        double epochSeconds = 300.0;  //!< Refit period; 0 = per submit.
        uint64_t trainingJobs = 0;    //!< Unscored warm-up submits.
    };

    /** Drive @p predictor and read @p probe (both outlive the core).
     *  Accuracy ratios spill to @p spill_path past the threshold. */
    QueueCore(core::Predictor &predictor, Rules rules,
              const ReplayProbe *probe = nullptr,
              std::string spill_path = {},
              size_t spill_threshold = std::numeric_limits<size_t>::max());

    /** Feed the next @p n jobs of this queue, in submission order. */
    void processRows(const double *submit, const double *wait, size_t n);

    /** Fire every release, epoch and snapshot tick at or before
     *  @p horizon (the probes' end-of-trace drain). */
    void advanceTo(double horizon);

    /** A job submitted at @p time. @return whether it is scored
     *  (past the training prefix). */
    bool submit(double time);

    /** A job starts at @p time: fire the epochs strictly before it. */
    void beginRelease(double time);

    /** Observe one released wait (a change-point trim refits). */
    void observe(double wait);

    /** @return whether a refit or trim moved the frozen bound since the
     *  last call — what the registry republishes on. */
    bool takeBoundMoved() { return std::exchange(moved_, false); }

    /** Score a released job against the bound captured at its submit.
     *  @return whether the bound covered the wait. */
    bool scoreRelease(double bound, double wait);

    uint64_t trainingJobs() const { return training_; }
    uint64_t submits() const { return submits_; }
    bool finalized() const { return finalized_; }
    uint64_t evaluated() const { return evaluated_; }
    uint64_t correct() const { return correct_; }
    uint64_t infinite() const { return infinite_; }
    const std::vector<SeriesPoint> &series() const { return series_; }
    const std::vector<QuantileSnapshot> &snapshots() const
    {
        return snapshots_;
    }

    /** Median actual/predicted ratio over scored finite predictions;
     *  0 when there are none. Errors only on spill-file I/O. */
    Expected<double> medianRatio();

    /** Serialize the core's state, then the predictor's. Fails when
     *  the ratios spilled or the predictor cannot persist. */
    Expected<Unit> saveState(persist::StateWriter &writer) const;

    /** Inverse of saveState(); commits only once the predictor loaded
     *  too (which commits on its own, as @p predictor_loaded reports).
     *  Refuses, before touching the predictor, a state past
     *  @p max_submits submits: a checkpoint ahead of its input. */
    Expected<Unit> loadState(
        persist::StateReader &reader, bool *predictor_loaded = nullptr,
        uint64_t max_submits = std::numeric_limits<uint64_t>::max());

  private:
    /** A submitted job waiting to be released; the heap orders by time
     *  alone (see DESIGN.md §6 on equal-time releases). */
    struct PendingRelease
    {
        double time;  //!< Release (start) time: submit + wait.
        double wait;  //!< The wait that becomes visible at release.

        bool
        operator>(const PendingRelease &other) const
        {
            return time > other.time;
        }
    };

    void refit();
    void fireEpoch(double now);
    /** Move the clock over the idle epochs before @p limit. */
    void skipIdleEpochs(double limit);
    void fireSnapshot(double now);
    void scoreRun(const double *waits, size_t count);

    core::Predictor &predictor_;
    const double epochSeconds_;
    const bool epochPerJob_;
    const uint64_t training_;
    const ReplayProbe *probe_;

    uint64_t submits_ = 0;
    bool finalized_ = false;
    double nextRefit_ = std::numeric_limits<double>::infinity();
    double nextSnapshot_;
    /** Observations since the last refit; a fresh predictor has never
     *  been refit, so it starts dirty. */
    bool dirty_ = true;
    /** Set by any refit or trim; see takeBoundMoved(). */
    bool moved_ = false;
    std::vector<PendingRelease> pending_;

    uint64_t evaluated_ = 0;
    uint64_t correct_ = 0;
    uint64_t infinite_ = 0;
    stats::SpillDoubles ratios_;
    std::vector<SeriesPoint> series_;
    std::vector<QuantileSnapshot> snapshots_;

    std::vector<double> ratioScratch_;
    std::vector<double> waitScratch_;
};

} // namespace sim
} // namespace qdel

#endif // QDEL_SIM_REPLAY_QUEUE_CORE_HH
