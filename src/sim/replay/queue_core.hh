/**
 * @file
 * The paper's Section 5.1 replay protocol for one queue, implemented
 * once: ReplaySimulator, the streaming replay and the online bound
 * registry all drive a QueueCore, so the served calibration equals the
 * offline table by construction.
 *
 *  - *Observe at release.* A wait enters the history only when its job
 *    starts: offline from a heap ordered by (start, submit), live as a
 *    Start event. Either way the wait observed and scored is
 *    start - submit, so equal keys carry equal waits and the pop order
 *    does not depend on how the heap was built.
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
 *  - *Keep the calibration window.* Every scored outcome also enters a
 *    ring of the last kWindowCapacity outcomes, in release order: live
 *    at scoreRelease(), offline when the job's release pops (its hit
 *    was judged at submit and rides on the pending release). The
 *    window and its obs::assessCalibration() verdict are the row
 *    /debug/calibration serves, so offline and online judge one record.
 *
 * processRows() feeds jobs with known waits (the replays), batching a
 * run of submits that sees no event into one scoreBatch() call and the
 * releases before a tick into one observeBatch() — both equal to
 * per-job calls, so chunking never changes results. The live calls
 * (the registry) take events: a Start at T fires the epochs strictly
 * before T, a Submit at T those at or before T — in eventsFromJobs'
 * order, exactly the offline order (DESIGN.md §6).
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

    /** The calibration window over the last scored outcomes in release
     *  order (jobs still pending join in (start, submit) order), and
     *  its verdict at the predictor's confidence. */
    size_t windowCount = 0;
    size_t windowHits = 0;
    double windowCoverage = -1.0;  //!< windowHits/windowCount; -1 if empty.
    double drift = 0.0;            //!< windowCoverage - confidence.
    double pValue = 1.0;  //!< P[Bin(windowCount, C) <= windowHits].
    bool failing = false; //!< The binomial test rejects coverage >= C.

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

/** See file comment. */
class QueueCore
{
  public:
    /** Outcomes the calibration window holds. */
    static constexpr size_t kWindowCapacity = 256;

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

    /** Score a released job against the bound captured at its submit
     *  and record the outcome in the window.
     *  @return whether the bound covered the wait. */
    bool scoreRelease(double bound, double wait);

    uint64_t submits() const { return submits_; }
    bool finalized() const { return finalized_; }
    uint64_t evaluated() const { return evaluated_; }
    uint64_t correct() const { return correct_; }
    uint64_t infinite() const { return infinite_; }
    /** Outcomes in the calibration window, and the hits among them. */
    size_t windowCount() const { return window_.count(); }
    size_t windowHits() const { return window_.hits; }

    /** The result of the jobs fed so far: totalJobs is the submit
     *  count, the scored fields, series and snapshots are the core's,
     *  and the window adds the pending jobs' outcomes on a copy.
     *  Errors only on spill-file I/O (the median ratio). */
    Expected<ReplayResult> result();

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
    /** A pending job's score, judged at submit, recorded at release. */
    enum class Outcome : uint8_t
    {
        Miss,
        Hit,
        Unscored,  //!< A training job.
    };

    /** A submitted job waiting to be released; the heap orders by
     *  (time, submit), and the wait it releases is time - submit. Its
     *  outcome sits at the same index of pendingOutcomes_, so the heap
     *  moves 16 bytes, not 24. */
    struct PendingRelease
    {
        double time;    //!< Release (start) time: submit + wait.
        double submit;  //!< The job's submit time.

        bool
        operator>(const PendingRelease &other) const
        {
            return time != other.time ? time > other.time
                                      : submit > other.submit;
        }
    };

    /** std::push_heap / std::pop_heap over pending_ (a min-heap by
     *  (time, submit)), made step for step as libstdc++ makes them so
     *  the checkpointed heap layout is unchanged, each move repeated in
     *  pendingOutcomes_. popPending() removes the front. */
    void pushPending(PendingRelease release, Outcome outcome);
    void popPending();
    void siftUp(ptrdiff_t hole, PendingRelease value, Outcome outcome);

    void refit();
    void fireEpoch(double now);
    /** Move the clock over the idle epochs before @p limit.
     *  @return false when every later epoch is idle and @p limit is
     *  infinite: the caller has nothing left to fire. */
    bool skipIdleEpochs(double limit);
    void fireSnapshot(double now);
    /** Score a run of jobs; @return the frozen bound it scored. */
    double scoreRun(const double *waits, size_t count);

    /** The ring of the last kWindowCapacity outcomes. */
    struct Window
    {
        uint8_t slots[kWindowCapacity] = {};
        uint64_t recorded = 0;  //!< Outcomes ever recorded (mod ring).
        size_t hits = 0;        //!< Hits among the held outcomes.

        size_t count() const;
        void record(bool hit);
        /** The held outcomes, oldest first, one byte each. */
        std::string oldestFirst() const;
    };

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
    std::vector<Outcome> pendingOutcomes_;  //!< One per pending_ slot.

    uint64_t evaluated_ = 0;
    uint64_t correct_ = 0;
    uint64_t infinite_ = 0;
    Window window_;
    stats::SpillDoubles ratios_;
    std::vector<SeriesPoint> series_;
    std::vector<QuantileSnapshot> snapshots_;

    std::vector<double> ratioScratch_;
    std::vector<double> waitScratch_;
    std::vector<double> rowWaits_;
};

} // namespace sim
} // namespace qdel

#endif // QDEL_SIM_REPLAY_QUEUE_CORE_HH
