/**
 * @file
 * The public predictor interface: the contract between the prediction
 * methods (BMBP, the log-normal baselines) and everything that drives
 * them (the replay simulator, the examples, live deployments).
 *
 * Lifecycle, mirroring the paper's Section 5.1 simulator:
 *  1. observe() each wait time as it becomes visible (a job's wait is
 *     only known once the job starts executing);
 *  2. refit() on every update epoch (the paper uses 300 s) — the value
 *     returned by upperBound() stays frozen between refits, exactly
 *     like a production predictor working from periodic queue dumps;
 *  3. finalizeTraining() once, when the warm-up history is loaded, so
 *     methods that calibrate change-point detection from the training
 *     period (BMBP's autocorrelation-indexed run threshold) can do so.
 */

#ifndef QDEL_CORE_PREDICTOR_HH
#define QDEL_CORE_PREDICTOR_HH

#include <cstddef>
#include <limits>
#include <string>
#include <utility>

#include "util/expected.hh"

namespace qdel {

namespace persist {
class StateWriter;
class StateReader;
} // namespace persist

namespace core {

/** A one-sided confidence bound on a wait-time quantile. */
struct QuantileEstimate
{
    /** The bound in seconds; +infinity when no finite bound exists. */
    double value = std::numeric_limits<double>::infinity();

    /** @return true when a finite bound could be produced. */
    bool finite() const { return value < std::numeric_limits<double>::infinity(); }

    /** Convenience factory for the no-finite-bound case. */
    static QuantileEstimate
    infinite()
    {
        return QuantileEstimate{};
    }

    /** Convenience factory for a concrete bound. */
    static QuantileEstimate
    of(double v)
    {
        return QuantileEstimate{v};
    }
};

/** Abstract wait-time quantile-bound predictor. */
class Predictor
{
  public:
    virtual ~Predictor() = default;

    /** Method name as it appears in result tables. */
    virtual std::string name() const = 0;

    /**
     * Feed one completed wait time (seconds) into the history, in
     * completion order. Implementations may run change-point detection
     * here (comparing the observation against their current bound).
     */
    virtual void observe(double wait_seconds) = 0;

    /**
     * Feed @p count completed wait times in order — semantically
     * identical to count observe() calls. The default does exactly
     * that; the concrete predictors override it to run their
     * (non-virtual) per-observation logic in a tight loop, so the
     * streaming replay path pays one virtual dispatch per column
     * slice instead of one per job.
     */
    virtual void observeBatch(const double *waits, size_t count);

    /** Aggregate outcome of one scoreBatch() call. */
    struct BatchScore
    {
        size_t correct = 0;   //!< Jobs whose wait met the bound.
        size_t infinite = 0;  //!< Jobs scored under an infinite bound
                              //!< (all count as correct, no ratio).
        /** The frozen bound the run was scored against (+inf when
         *  none), so a caller can judge each job without another
         *  upperBound() call. */
        double bound = std::numeric_limits<double>::infinity();
    };

    /**
     * Score @p count actual waits against the current bound with a
     * single upperBound() virtual call — valid for a run of jobs that
     * crosses no refit(), because bounds are frozen between refits
     * (see the lifecycle comment). When the bound is finite,
     * @p ratios[i] receives waits[i] / max(bound, 1e-9) for every i;
     * when infinite, @p ratios is untouched (infinite == count and
     * every job counts correct, matching the replay scoring rule).
     * Non-virtual: the semantics are fixed by the interface contract.
     */
    BatchScore scoreBatch(const double *waits, size_t count,
                          double *ratios) const;

    /**
     * Fill @p upper[i] (and @p lower[i] when non-null) with
     * boundAt(qs[i], ...) for @p count quantiles in one pass over the
     * frozen state. Like scoreBatch(), this leans on the lifecycle
     * invariant that bounds are frozen between refit() calls: a grid
     * captured right after a mutation stays valid until the next one,
     * which is what lets the serve read path publish grids as
     * immutable snapshots instead of taking a lock per query.
     * Non-virtual: the semantics are fixed by the interface contract.
     */
    void boundGrid(const double *qs, size_t count, QuantileEstimate *upper,
                   QuantileEstimate *lower) const;

    /**
     * Recompute the prediction from the current history. Called on
     * epoch boundaries by the replay simulator.
     */
    virtual void refit() = 0;

    /**
     * The current upper confidence bound for the configured quantile —
     * the value a user submitting a job right now would be given.
     * Stable between refit() calls.
     */
    virtual QuantileEstimate upperBound() const = 0;

    /**
     * The confidence level C the bounds claim: what a replay's
     * calibration window is judged against. Default 0.95, the paper's
     * C, for methods whose bound carries no confidence of its own.
     */
    virtual double confidence() const;

    /**
     * On-demand bound for an arbitrary quantile from the current
     * history (paper Section 6.3, the "day in the life" quantile
     * spectrum). @p upper selects upper vs lower confidence bound.
     * Default: no capability (infinite upper / zero lower).
     */
    virtual QuantileEstimate boundAt(double q, bool upper) const;

    /**
     * Two-sided confidence interval on the @p q quantile (paper
     * Section 3 notes the method extends to two-sided intervals):
     * [lower, upper] composed from the two one-sided bounds at the
     * instance's confidence level C, giving joint coverage of at
     * least 2C - 1 by Bonferroni (90% for the default C = .95).
     *
     * Default implementation delegates to boundAt(); methods without
     * confidence semantics return whatever their point estimates give.
     */
    virtual std::pair<QuantileEstimate, QuantileEstimate>
    interval(double q) const;

    /**
     * Hook invoked once when the training prefix has been loaded.
     * Default: no-op.
     */
    virtual void finalizeTraining();

    /** Number of wait times currently in the visible history. */
    virtual size_t historySize() const = 0;

    /**
     * Serialize the complete mutable state — everything needed so that
     * a loadState()ed instance continues *bit-identically* (history,
     * cached bounds, change-point run counters, running sums in their
     * exact rounding state). Configuration is echoed into the payload
     * and verified by loadState(), which refuses to restore into an
     * instance configured differently.
     *
     * Default: unsupported (an error naming the method); predictors
     * opt in by overriding both hooks.
     */
    virtual Expected<Unit> saveState(persist::StateWriter &writer) const;

    /**
     * Restore state written by saveState() on an equally-configured
     * instance. Transactional: on error the instance is unchanged
     * (implementations parse into locals and commit last), so recovery
     * can fall back to an older snapshot on the same object.
     */
    virtual Expected<Unit> loadState(persist::StateReader &reader);
};

} // namespace core
} // namespace qdel

#endif // QDEL_CORE_PREDICTOR_HH
