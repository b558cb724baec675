/**
 * @file
 * The Brevik Method Batch Predictor (BMBP) — the paper's contribution.
 *
 * Non-parametric upper (and lower) confidence bounds on wait-time
 * quantiles from order statistics of the observed history (exact
 * binomial method, Section 4.1 / Appendix), combined with adaptive
 * change-point detection: a run of consecutive observations above the
 * current bound whose length exceeds the autocorrelation-calibrated
 * rare-event threshold triggers trimming of the history to the minimum
 * sample that still supports a meaningful bound (59 observations for
 * the .95 quantile at 95% confidence).
 */

#ifndef QDEL_CORE_BMBP_PREDICTOR_HH
#define QDEL_CORE_BMBP_PREDICTOR_HH

#include <deque>
#include <memory>

#include "core/predictor.hh"
#include "core/rare_event.hh"
#include "stats/quantile_bounds.hh"
#include "util/expected.hh"
#include "util/order_statistic_list.hh"

namespace qdel {
namespace core {

/** Tunables of the BMBP predictor. */
struct BmbpConfig
{
    double quantile = 0.95;     //!< Quantile to bound.
    double confidence = 0.95;   //!< Confidence level of the bound.

    /** Master switch for the change-point machinery. */
    bool trimmingEnabled = true;

    /**
     * Fixed run-length threshold; 0 selects the paper's behaviour of
     * reading the threshold from the rare-event table using the lag-1
     * autocorrelation measured over the training period.
     */
    int runThresholdOverride = 0;

    /** Optional hard cap on history length; 0 = unbounded. */
    size_t maxHistory = 0;

    /**
     * Check quantile/confidence are in (0, 1) (NaN-safe) and the
     * threshold override is non-negative. Callers building a config
     * from external input validate before constructing the predictor;
     * BmbpPredictor itself treats an invalid config as a programmer
     * error.
     */
    Expected<Unit> validate() const;
};

/** See file comment. */
class BmbpPredictor : public Predictor
{
  public:
    /**
     * @param config Predictor tunables.
     * @param table  Shared rare-event table (may be shared across many
     *               predictor instances; must outlive them). nullptr
     *               lazily builds a private table when needed.
     */
    explicit BmbpPredictor(BmbpConfig config = {},
                           const RareEventTable *table = nullptr);

    std::string name() const override { return "bmbp"; }
    void observe(double wait_seconds) override { observeOne(wait_seconds); }
    void observeBatch(const double *waits, size_t count) override;
    void refit() override;
    QuantileEstimate upperBound() const override;
    double confidence() const override { return config_.confidence; }
    QuantileEstimate boundAt(double q, bool upper) const override;
    void finalizeTraining() override;
    size_t historySize() const override { return chronological_.size(); }
    Expected<Unit> saveState(persist::StateWriter &writer) const override;
    Expected<Unit> loadState(persist::StateReader &reader) override;

    /** Run-length threshold currently in force. */
    int runThreshold() const { return runThreshold_; }

    /** Number of change points detected (trims performed) so far. */
    size_t trimCount() const { return trimCount_; }

    /** Current consecutive-exceedance count. */
    int currentRun() const { return missRun_; }

    /** Minimum history the predictor trims to. */
    size_t minimumHistory() const { return minimumHistory_; }

  private:
    void observeOne(double wait_seconds);
    void trimHistory();
    QuantileEstimate computeBound(double q, bool upper) const;

    BmbpConfig config_;
    const RareEventTable *table_;
    std::unique_ptr<RareEventTable> ownedTable_;

    std::deque<double> chronological_;  //!< History in completion order.
    OrderStatisticList sorted_;         //!< Same values, order-statistic view.

    /**
     * Incremental index cache for the configured (quantile,
     * confidence): refit() reuses the cached order-statistic index
     * when the history length is unchanged and advances it through
     * the binomial recurrence when it grows by one, instead of
     * re-running the binary search over the binomial CDF. Ad-hoc
     * boundAt() quantiles bypass it. Mutable: an index cache does not
     * change observable predictor state.
     */
    mutable stats::BoundIndexCache boundIndex_;

    QuantileEstimate cachedBound_;      //!< Value frozen between refits.
    int missRun_ = 0;
    int runThreshold_ = 3;              //!< i.i.d. default until trained.
    size_t minimumHistory_;
    size_t trimCount_ = 0;
};

} // namespace core
} // namespace qdel

#endif // QDEL_CORE_BMBP_PREDICTOR_HH
