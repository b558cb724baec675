/**
 * @file
 * Implementation of BMBP.
 */

#include "core/bmbp_predictor.hh"

#include <vector>

#include "obs/domain_metrics.hh"
#include "obs/obs.hh"
#include "persist/state_codec.hh"
#include "stats/descriptive.hh"
#include "stats/quantile_bounds.hh"
#include "util/logging.hh"

namespace qdel {
namespace core {

Expected<Unit>
BmbpConfig::validate() const
{
    // Negated comparisons so NaN fails validation too.
    if (!(quantile > 0.0 && quantile < 1.0)) {
        return ParseError{"", 0, "quantile",
                          "must be in (0, 1), got " +
                              std::to_string(quantile)};
    }
    if (!(confidence > 0.0 && confidence < 1.0)) {
        return ParseError{"", 0, "confidence",
                          "must be in (0, 1), got " +
                              std::to_string(confidence)};
    }
    if (runThresholdOverride < 0) {
        return ParseError{"", 0, "runThresholdOverride",
                          "must be >= 0, got " +
                              std::to_string(runThresholdOverride)};
    }
    return Unit{};
}

namespace {

// External input is validated by the caller (see DESIGN.md §10); a bad
// config reaching construction is a programmer error. Runs first in
// the init list so minimumSampleSize() never sees a bad quantile.
BmbpConfig
validatedConfig(BmbpConfig config)
{
    if (auto valid = config.validate(); !valid.ok())
        panic("BmbpPredictor: ", valid.error().str());
    return config;
}

} // namespace

BmbpPredictor::BmbpPredictor(BmbpConfig config, const RareEventTable *table)
    : config_(validatedConfig(config)), table_(table),
      boundIndex_(config.quantile, config.confidence),
      minimumHistory_(stats::minimumSampleSize(config.quantile,
                                               config.confidence))
{
    if (config_.runThresholdOverride > 0)
        runThreshold_ = config_.runThresholdOverride;
}

void
BmbpPredictor::observeBatch(const double *waits, size_t count)
{
    // Same semantics as count observe() calls, minus the per-call
    // virtual dispatch: observeOne is non-virtual and inlines here.
    for (size_t i = 0; i < count; ++i)
        observeOne(waits[i]);
}

void
BmbpPredictor::observeOne(double wait_seconds)
{
    chronological_.push_back(wait_seconds);
    sorted_.insert(wait_seconds);

    if (config_.maxHistory > 0) {
        while (chronological_.size() > config_.maxHistory) {
            sorted_.erase(chronological_.front());
            chronological_.pop_front();
        }
    }

    QDEL_OBS({
        obs::coreMetrics().observations.inc();
        obs::coreMetrics().historySize.set(
            static_cast<double>(chronological_.size()));
    });

    if (!config_.trimmingEnabled)
        return;

    // Change-point detection: track consecutive observations above the
    // current bound (only meaningful once a finite bound exists).
    if (cachedBound_.finite() && wait_seconds > cachedBound_.value) {
        ++missRun_;
        QDEL_OBS({
            if (missRun_ == 1) {
                obs::coreMetrics().rareRunStarted.inc();
                obs::events().emit(obs::EventType::RareRunStarted,
                                   cachedBound_.value, wait_seconds);
            }
            obs::coreMetrics().rareRunLength.set(
                static_cast<double>(missRun_));
        });
        if (missRun_ >= runThreshold_)
            trimHistory();
    } else {
        missRun_ = 0;
        QDEL_OBS(obs::coreMetrics().rareRunLength.set(0.0));
    }
}

void
BmbpPredictor::refit()
{
    // The comma expression rides the span's single enabled() check so
    // a disabled refit pays one branch, not two (refit is per-epoch but
    // also the tightest instrumented function in the repo).
    QDEL_OBS_SPAN(span,
                  (obs::coreMetrics().refits.inc(),
                   obs::coreMetrics().refitSeconds),
                  obs::EventType::Span, "bmbp_refit");
    cachedBound_ = computeBound(config_.quantile, /*upper=*/true);
}

QuantileEstimate
BmbpPredictor::upperBound() const
{
    return cachedBound_;
}

QuantileEstimate
BmbpPredictor::boundAt(double q, bool upper) const
{
    return computeBound(q, upper);
}

QuantileEstimate
BmbpPredictor::computeBound(double q, bool upper) const
{
    const size_t n = sorted_.size();
    if (n == 0)
        return upper ? QuantileEstimate::infinite()
                     : QuantileEstimate::of(0.0);
    // The cache serves the configured quantile (the refit() hot path);
    // ad-hoc quantile queries fall back to the direct computation.
    const bool cacheable = q == config_.quantile;
    const auto index =
        upper ? (cacheable ? boundIndex_.upperIndex(n)
                           : stats::upperBoundIndex(n, q,
                                                    config_.confidence))
              : (cacheable ? boundIndex_.lowerIndex(n)
                           : stats::lowerBoundIndex(n, q,
                                                    config_.confidence));
    if (!index)
        return upper ? QuantileEstimate::infinite()
                     : QuantileEstimate::of(0.0);
    // Order-statistic indices are 1-based in the math, 0-based in the
    // sorted view.
    return QuantileEstimate::of(sorted_.kth(*index - 1));
}

void
BmbpPredictor::finalizeTraining()
{
    if (config_.runThresholdOverride > 0) {
        runThreshold_ = config_.runThresholdOverride;
        return;
    }
    // Measure the lag-1 autocorrelation of the training history and
    // read the rare-event threshold from the table (paper Section 4.1).
    std::vector<double> history(chronological_.begin(),
                                chronological_.end());
    const double rho = stats::autocorrelation(history, 1);

    if (!table_ && !ownedTable_) {
        ownedTable_ =
            std::make_unique<RareEventTable>(config_.quantile, 0.05);
    }
    const RareEventTable &table = table_ ? *table_ : *ownedTable_;
    runThreshold_ = table.threshold(rho);
}

namespace {

/** Bumped when the BMBP state payload layout changes incompatibly. */
constexpr uint32_t kBmbpStateVersion = 1;

} // namespace

Expected<Unit>
BmbpPredictor::saveState(persist::StateWriter &writer) const
{
    persist::writeStateHeader(writer, name(), kBmbpStateVersion);
    // Config echo, verified on load: restoring into a differently
    // configured instance would silently change the method.
    writer.f64(config_.quantile);
    writer.f64(config_.confidence);
    writer.u8(config_.trimmingEnabled ? 1 : 0);
    writer.i64(config_.runThresholdOverride);
    writer.u64(config_.maxHistory);
    // Mutable state. The sorted view and the index cache are derived
    // and rebuilt on load; everything else is stored exactly.
    writer.doubles(chronological_);
    writer.f64(cachedBound_.value);
    writer.i64(missRun_);
    writer.i64(runThreshold_);
    writer.u64(trimCount_);
    return Unit{};
}

Expected<Unit>
BmbpPredictor::loadState(persist::StateReader &reader)
{
    persist::readStateHeader(reader, name(), kBmbpStateVersion);
    const double quantile = reader.f64();
    const double confidence = reader.f64();
    const bool trimming = reader.u8() != 0;
    const int64_t run_override = reader.i64();
    const uint64_t max_history = reader.u64();
    std::vector<double> history = reader.doubles();
    const double bound = reader.f64();
    const int64_t miss_run = reader.i64();
    const int64_t run_threshold = reader.i64();
    const uint64_t trim_count = reader.u64();
    if (quantile != config_.quantile || confidence != config_.confidence ||
        trimming != config_.trimmingEnabled ||
        run_override != config_.runThresholdOverride ||
        static_cast<size_t>(max_history) != config_.maxHistory) {
        reader.fail(ParseError{"", 0, "config",
                               "state was saved by a differently-configured "
                               "bmbp instance"});
    }
    if (!reader.ok())
        return reader.error();

    // Everything parsed; commit (transactional contract of loadState).
    chronological_.assign(history.begin(), history.end());
    sorted_.assign(std::move(history));
    boundIndex_ =
        stats::BoundIndexCache(config_.quantile, config_.confidence);
    cachedBound_.value = bound;
    missRun_ = static_cast<int>(miss_run);
    runThreshold_ = static_cast<int>(run_threshold);
    trimCount_ = static_cast<size_t>(trim_count);
    return Unit{};
}

void
BmbpPredictor::trimHistory()
{
    ++trimCount_;
    QDEL_OBS({
        obs::coreMetrics().rareEventFired.inc();
        obs::events().emit(obs::EventType::RareEventFired,
                           static_cast<double>(missRun_),
                           static_cast<double>(chronological_.size()),
                           "bmbp");
        obs::coreMetrics().rareRunLength.set(0.0);
    });
    missRun_ = 0;
    // Keep only the most recent observations that still allow a
    // meaningful bound at the configured quantile/confidence. When the
    // trim discards more than it retains (the common case: a long
    // stationary history collapsing to the 59-observation minimum),
    // rebuilding the sorted view from the survivors is far cheaper
    // than erasing the discarded values one at a time.
    const size_t excess = chronological_.size() > minimumHistory_
                              ? chronological_.size() - minimumHistory_
                              : 0;
    if (excess > minimumHistory_) {
        chronological_.erase(chronological_.begin(),
                             chronological_.begin() +
                                 static_cast<ptrdiff_t>(excess));
        sorted_.assign(std::vector<double>(chronological_.begin(),
                                           chronological_.end()));
    } else {
        while (chronological_.size() > minimumHistory_) {
            sorted_.erase(chronological_.front());
            chronological_.pop_front();
        }
    }
    QDEL_OBS({
        obs::events().emit(obs::EventType::HistoryTrimmed,
                           static_cast<double>(chronological_.size()),
                           0.0, "bmbp");
        obs::coreMetrics().historySize.set(
            static_cast<double>(chronological_.size()));
    });
    // The old model is invalid; re-arm immediately rather than waiting
    // for the next epoch.
    refit();
}

} // namespace core
} // namespace qdel
