/**
 * @file
 * Implementation of the naive percentile baseline.
 */

#include "core/percentile_predictor.hh"

#include <cmath>
#include <vector>

#include "obs/domain_metrics.hh"
#include "obs/obs.hh"
#include "persist/state_codec.hh"

namespace qdel {
namespace core {

namespace {

/** Bumped when the percentile state payload changes incompatibly. */
constexpr uint32_t kPercentileStateVersion = 1;

} // namespace

PercentilePredictor::PercentilePredictor(double quantile, size_t max_history)
    : quantile_(quantile), maxHistory_(max_history)
{
}

void
PercentilePredictor::observeBatch(const double *waits, size_t count)
{
    for (size_t i = 0; i < count; ++i)
        observeOne(waits[i]);
}

void
PercentilePredictor::observeOne(double wait_seconds)
{
    chronological_.push_back(wait_seconds);
    sorted_.insert(wait_seconds);
    if (maxHistory_ > 0) {
        while (chronological_.size() > maxHistory_) {
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
PercentilePredictor::refit()
{
    // The comma expression rides the span's single enabled() check so
    // a disabled refit pays one branch, not two (refit is per-epoch but
    // also the tightest instrumented function in the repo).
    QDEL_OBS_SPAN(span,
                  (obs::coreMetrics().refits.inc(),
                   obs::coreMetrics().refitSeconds),
                  obs::EventType::Span, "percentile_refit");
    cachedBound_ = computeAt(quantile_);
}

QuantileEstimate
PercentilePredictor::upperBound() const
{
    return cachedBound_;
}

QuantileEstimate
PercentilePredictor::boundAt(double q, bool upper) const
{
    (void)upper;  // No confidence machinery: same value either side.
    return computeAt(q);
}

Expected<Unit>
PercentilePredictor::saveState(persist::StateWriter &writer) const
{
    persist::writeStateHeader(writer, name(), kPercentileStateVersion);
    writer.f64(quantile_);
    writer.u64(maxHistory_);
    writer.doubles(chronological_);
    writer.f64(cachedBound_.value);
    return Unit{};
}

Expected<Unit>
PercentilePredictor::loadState(persist::StateReader &reader)
{
    persist::readStateHeader(reader, name(), kPercentileStateVersion);
    const double quantile = reader.f64();
    const uint64_t max_history = reader.u64();
    std::vector<double> history = reader.doubles();
    const double bound = reader.f64();
    if (quantile != quantile_ ||
        static_cast<size_t>(max_history) != maxHistory_) {
        reader.fail(ParseError{"", 0, "config",
                               "state was saved by a differently-configured "
                               "percentile instance"});
    }
    if (!reader.ok())
        return reader.error();

    chronological_.assign(history.begin(), history.end());
    sorted_.assign(std::move(history));
    cachedBound_.value = bound;
    return Unit{};
}

QuantileEstimate
PercentilePredictor::computeAt(double q) const
{
    const size_t n = sorted_.size();
    if (n == 0)
        return QuantileEstimate::infinite();
    // Nearest-rank empirical quantile.
    auto rank = static_cast<size_t>(
        std::ceil(q * static_cast<double>(n)));
    if (rank == 0)
        rank = 1;
    if (rank > n)
        rank = n;
    return QuantileEstimate::of(sorted_.kth(rank - 1));
}

} // namespace core
} // namespace qdel
