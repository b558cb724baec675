/**
 * @file
 * The parametric baseline predictor (paper Section 4.2): fit a
 * log-normal to the observed wait times by maximum likelihood and
 * produce an upper confidence (tolerance) bound on the quantile of the
 * fitted normal of the logs using the K' factor of Guttman's
 * Table 4.6 (noncentral t). Available with full history ("NoTrim") or
 * with BMBP's history-trimming change-point machinery ("Trim") so the
 * paper's three-way comparison can be reproduced.
 */

#ifndef QDEL_CORE_LOGNORMAL_PREDICTOR_HH
#define QDEL_CORE_LOGNORMAL_PREDICTOR_HH

#include <deque>
#include <memory>

#include "core/predictor.hh"
#include "core/rare_event.hh"

namespace qdel {
namespace core {

/** Tunables of the log-normal baseline. */
struct LogNormalConfig
{
    double quantile = 0.95;    //!< Quantile to bound.
    double confidence = 0.95;  //!< Confidence level of the bound.

    /** Enable BMBP-style history trimming (the paper's "Trim" variant). */
    bool trimmingEnabled = false;

    /**
     * Floor applied to observations before the log transform: waits of
     * zero seconds occur in real traces and log(0) is undefined.
     */
    double epsilonSeconds = 1.0;

    /** Fixed run threshold; 0 = autocorrelation table (as BMBP). */
    int runThresholdOverride = 0;
};

/** See file comment. */
class LogNormalPredictor : public Predictor
{
  public:
    /**
     * @param config Predictor tunables.
     * @param table  Shared rare-event table (for the Trim variant);
     *               nullptr lazily builds a private one when needed.
     */
    explicit LogNormalPredictor(LogNormalConfig config = {},
                                const RareEventTable *table = nullptr);

    std::string name() const override;
    void observe(double wait_seconds) override { observeOne(wait_seconds); }
    void observeBatch(const double *waits, size_t count) override;
    void refit() override;
    QuantileEstimate upperBound() const override;
    QuantileEstimate boundAt(double q, bool upper) const override;
    void finalizeTraining() override;
    size_t historySize() const override { return logs_.size(); }
    Expected<Unit> saveState(persist::StateWriter &writer) const override;
    Expected<Unit> loadState(persist::StateReader &reader) override;

    /** Number of change points detected (Trim variant only). */
    size_t trimCount() const { return trimCount_; }

    /** Run-length threshold currently in force (Trim variant). */
    int runThreshold() const { return runThreshold_; }

  private:
    void observeOne(double wait_seconds);
    void trimHistory();
    void rebuildSums();
    QuantileEstimate computeBound(double q, bool upper) const;

    LogNormalConfig config_;
    const RareEventTable *table_;
    std::unique_ptr<RareEventTable> ownedTable_;

    std::deque<double> logs_;   //!< log(max(wait, epsilon)), in order.
    double sum_ = 0.0;          //!< Running sum of logs.
    double sumSq_ = 0.0;        //!< Running sum of squared logs.

    QuantileEstimate cachedBound_;
    int missRun_ = 0;
    int runThreshold_ = 3;
    size_t minimumHistory_;
    size_t trimCount_ = 0;
};

} // namespace core
} // namespace qdel

#endif // QDEL_CORE_LOGNORMAL_PREDICTOR_HH
