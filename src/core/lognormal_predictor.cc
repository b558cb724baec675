/**
 * @file
 * Implementation of the log-normal baseline predictor.
 */

#include "core/lognormal_predictor.hh"

#include <cmath>
#include <vector>

#include "obs/domain_metrics.hh"
#include "obs/obs.hh"
#include "persist/state_codec.hh"
#include "stats/descriptive.hh"
#include "stats/quantile_bounds.hh"
#include "stats/special_functions.hh"
#include "stats/tolerance.hh"
#include "util/logging.hh"

namespace qdel {
namespace core {

LogNormalPredictor::LogNormalPredictor(LogNormalConfig config,
                                       const RareEventTable *table)
    : config_(config), table_(table),
      minimumHistory_(stats::minimumSampleSize(config.quantile,
                                               config.confidence))
{
    if (config_.runThresholdOverride > 0)
        runThreshold_ = config_.runThresholdOverride;
}

std::string
LogNormalPredictor::name() const
{
    return config_.trimmingEnabled ? "lognormal-trim" : "lognormal";
}

void
LogNormalPredictor::observeBatch(const double *waits, size_t count)
{
    for (size_t i = 0; i < count; ++i)
        observeOne(waits[i]);
}

void
LogNormalPredictor::observeOne(double wait_seconds)
{
    const double log_wait =
        std::log(std::max(wait_seconds, config_.epsilonSeconds));
    logs_.push_back(log_wait);
    sum_ += log_wait;
    sumSq_ += log_wait * log_wait;

    QDEL_OBS({
        obs::coreMetrics().observations.inc();
        obs::coreMetrics().historySize.set(
            static_cast<double>(logs_.size()));
    });

    if (!config_.trimmingEnabled)
        return;

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
LogNormalPredictor::refit()
{
    // The comma expression rides the span's single enabled() check so
    // a disabled refit pays one branch, not two (refit is per-epoch but
    // also the tightest instrumented function in the repo).
    QDEL_OBS_SPAN(span,
                  (obs::coreMetrics().refits.inc(),
                   obs::coreMetrics().refitSeconds),
                  obs::EventType::Span, "lognormal_refit");
    cachedBound_ = computeBound(config_.quantile, /*upper=*/true);
}

QuantileEstimate
LogNormalPredictor::upperBound() const
{
    return cachedBound_;
}

QuantileEstimate
LogNormalPredictor::boundAt(double q, bool upper) const
{
    return computeBound(q, upper);
}

QuantileEstimate
LogNormalPredictor::computeBound(double q, bool upper) const
{
    const size_t n = logs_.size();
    if (n < 2) {
        return upper ? QuantileEstimate::infinite()
                     : QuantileEstimate::of(0.0);
    }
    const double dn = static_cast<double>(n);
    const double mean = sum_ / dn;
    double variance = (sumSq_ - dn * mean * mean) / (dn - 1.0);
    if (variance < 0.0)
        variance = 0.0;
    const double sd = std::sqrt(variance);

    if (upper) {
        const double k =
            stats::normalToleranceFactor(n, q, config_.confidence);
        return QuantileEstimate::of(std::exp(mean + k * sd));
    }
    // Lower tolerance bound on the q quantile: by symmetry of the
    // normal, a level-C lower bound for the q quantile is
    // mean - k'(n, 1-q) * sd.
    const double k =
        stats::normalToleranceFactor(n, 1.0 - q, config_.confidence);
    return QuantileEstimate::of(std::exp(mean - k * sd));
}

void
LogNormalPredictor::finalizeTraining()
{
    if (!config_.trimmingEnabled || config_.runThresholdOverride > 0)
        return;
    std::vector<double> history(logs_.begin(), logs_.end());
    const double rho = stats::autocorrelation(history, 1);
    if (!table_ && !ownedTable_) {
        ownedTable_ =
            std::make_unique<RareEventTable>(config_.quantile, 0.05);
    }
    const RareEventTable &table = table_ ? *table_ : *ownedTable_;
    runThreshold_ = table.threshold(rho);
}

namespace {

/** Bumped when the log-normal state payload changes incompatibly. */
constexpr uint32_t kLogNormalStateVersion = 1;

} // namespace

Expected<Unit>
LogNormalPredictor::saveState(persist::StateWriter &writer) const
{
    persist::writeStateHeader(writer, name(), kLogNormalStateVersion);
    writer.f64(config_.quantile);
    writer.f64(config_.confidence);
    writer.u8(config_.trimmingEnabled ? 1 : 0);
    writer.f64(config_.epsilonSeconds);
    writer.i64(config_.runThresholdOverride);
    // The running sums are stored in their exact rounding state, not
    // recomputed on load: rebuilding them from logs_ could land on a
    // different floating-point result than the uninterrupted run.
    writer.doubles(logs_);
    writer.f64(sum_);
    writer.f64(sumSq_);
    writer.f64(cachedBound_.value);
    writer.i64(missRun_);
    writer.i64(runThreshold_);
    writer.u64(trimCount_);
    return Unit{};
}

Expected<Unit>
LogNormalPredictor::loadState(persist::StateReader &reader)
{
    persist::readStateHeader(reader, name(), kLogNormalStateVersion);
    const double quantile = reader.f64();
    const double confidence = reader.f64();
    const bool trimming = reader.u8() != 0;
    const double epsilon = reader.f64();
    const int64_t run_override = reader.i64();
    const std::vector<double> logs = reader.doubles();
    const double sum = reader.f64();
    const double sum_sq = reader.f64();
    const double bound = reader.f64();
    const int64_t miss_run = reader.i64();
    const int64_t run_threshold = reader.i64();
    const uint64_t trim_count = reader.u64();
    if (quantile != config_.quantile || confidence != config_.confidence ||
        trimming != config_.trimmingEnabled ||
        epsilon != config_.epsilonSeconds ||
        run_override != config_.runThresholdOverride) {
        reader.fail(ParseError{"", 0, "config",
                               "state was saved by a differently-configured " +
                                   name() + " instance"});
    }
    if (!reader.ok())
        return reader.error();

    logs_.assign(logs.begin(), logs.end());
    sum_ = sum;
    sumSq_ = sum_sq;
    cachedBound_.value = bound;
    missRun_ = static_cast<int>(miss_run);
    runThreshold_ = static_cast<int>(run_threshold);
    trimCount_ = static_cast<size_t>(trim_count);
    return Unit{};
}

void
LogNormalPredictor::trimHistory()
{
    ++trimCount_;
    QDEL_OBS({
        obs::coreMetrics().rareEventFired.inc();
        obs::events().emit(obs::EventType::RareEventFired,
                           static_cast<double>(missRun_),
                           static_cast<double>(logs_.size()),
                           "lognormal");
        obs::coreMetrics().rareRunLength.set(0.0);
    });
    missRun_ = 0;
    while (logs_.size() > minimumHistory_)
        logs_.pop_front();
    rebuildSums();
    QDEL_OBS({
        obs::events().emit(obs::EventType::HistoryTrimmed,
                           static_cast<double>(logs_.size()), 0.0,
                           "lognormal");
        obs::coreMetrics().historySize.set(
            static_cast<double>(logs_.size()));
    });
    refit();
}

void
LogNormalPredictor::rebuildSums()
{
    sum_ = 0.0;
    sumSq_ = 0.0;
    for (double log_wait : logs_) {
        sum_ += log_wait;
        sumSq_ += log_wait * log_wait;
    }
}

} // namespace core
} // namespace qdel
