/**
 * @file
 * Implementation of the Downey-style log-uniform baseline.
 */

#include "core/loguniform_predictor.hh"

#include <cmath>
#include <vector>

#include "obs/domain_metrics.hh"
#include "obs/obs.hh"
#include "persist/state_codec.hh"

namespace qdel {
namespace core {

namespace {

/** Bumped when the log-uniform state payload changes incompatibly. */
constexpr uint32_t kLogUniformStateVersion = 1;

} // namespace

LogUniformPredictor::LogUniformPredictor(LogUniformConfig config)
    : config_(config)
{
}

void
LogUniformPredictor::observeBatch(const double *waits, size_t count)
{
    for (size_t i = 0; i < count; ++i)
        observeOne(waits[i]);
}

void
LogUniformPredictor::observeOne(double wait_seconds)
{
    const double floored = std::max(wait_seconds, config_.epsilonSeconds);
    chronological_.push_back(floored);
    sorted_.insert(floored);
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
}

void
LogUniformPredictor::refit()
{
    // The comma expression rides the span's single enabled() check so
    // a disabled refit pays one branch, not two (refit is per-epoch but
    // also the tightest instrumented function in the repo).
    QDEL_OBS_SPAN(span,
                  (obs::coreMetrics().refits.inc(),
                   obs::coreMetrics().refitSeconds),
                  obs::EventType::Span, "loguniform_refit");
    cachedBound_ = computeAt(config_.quantile);
}

QuantileEstimate
LogUniformPredictor::upperBound() const
{
    return cachedBound_;
}

QuantileEstimate
LogUniformPredictor::boundAt(double q, bool upper) const
{
    (void)upper;  // point estimate: no one-sided confidence semantics
    return computeAt(q);
}

Expected<Unit>
LogUniformPredictor::saveState(persist::StateWriter &writer) const
{
    persist::writeStateHeader(writer, name(), kLogUniformStateVersion);
    writer.f64(config_.quantile);
    writer.f64(config_.robustFraction);
    writer.f64(config_.epsilonSeconds);
    writer.u64(config_.maxHistory);
    writer.doubles(chronological_);
    writer.f64(cachedBound_.value);
    return Unit{};
}

Expected<Unit>
LogUniformPredictor::loadState(persist::StateReader &reader)
{
    persist::readStateHeader(reader, name(), kLogUniformStateVersion);
    const double quantile = reader.f64();
    const double robust = reader.f64();
    const double epsilon = reader.f64();
    const uint64_t max_history = reader.u64();
    std::vector<double> history = reader.doubles();
    const double bound = reader.f64();
    if (quantile != config_.quantile || robust != config_.robustFraction ||
        epsilon != config_.epsilonSeconds ||
        static_cast<size_t>(max_history) != config_.maxHistory) {
        reader.fail(ParseError{"", 0, "config",
                               "state was saved by a differently-configured "
                               "loguniform instance"});
    }
    if (!reader.ok())
        return reader.error();

    chronological_.assign(history.begin(), history.end());
    sorted_.assign(std::move(history));
    cachedBound_.value = bound;
    return Unit{};
}

QuantileEstimate
LogUniformPredictor::computeAt(double q) const
{
    const size_t n = sorted_.size();
    if (n < 2)
        return QuantileEstimate::infinite();

    // Robust support: trim robustFraction from each side.
    size_t lo_rank = static_cast<size_t>(
        config_.robustFraction * static_cast<double>(n));
    size_t hi_rank = n - 1 - lo_rank;
    if (hi_rank <= lo_rank) {
        lo_rank = 0;
        hi_rank = n - 1;
    }
    const double log_a = std::log(sorted_.kth(lo_rank));
    const double log_b = std::log(sorted_.kth(hi_rank));
    if (log_b <= log_a)
        return QuantileEstimate::of(std::exp(log_a));

    // Quantile of Uniform(log a, log b), exponentiated.
    return QuantileEstimate::of(
        std::exp(log_a + q * (log_b - log_a)));
}

} // namespace core
} // namespace qdel
