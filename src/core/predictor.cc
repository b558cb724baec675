/**
 * @file
 * Default implementations for the optional Predictor hooks.
 */

#include "core/predictor.hh"

#include <algorithm>

namespace qdel {
namespace core {

void
Predictor::observeBatch(const double *waits, size_t count)
{
    for (size_t i = 0; i < count; ++i)
        observe(waits[i]);
}

Predictor::BatchScore
Predictor::scoreBatch(const double *waits, size_t count,
                      double *ratios) const
{
    BatchScore score;
    const QuantileEstimate bound = upperBound();
    score.bound = bound.value;
    if (!bound.finite()) {
        score.correct = count;
        score.infinite = count;
        return score;
    }
    const double divisor = std::max(bound.value, 1e-9);
    for (size_t i = 0; i < count; ++i) {
        if (bound.value >= waits[i])
            ++score.correct;
        ratios[i] = waits[i] / divisor;
    }
    return score;
}

void
Predictor::boundGrid(const double *qs, size_t count, QuantileEstimate *upper,
                     QuantileEstimate *lower) const
{
    for (size_t i = 0; i < count; ++i) {
        if (upper != nullptr)
            upper[i] = boundAt(qs[i], /*upper=*/true);
        if (lower != nullptr)
            lower[i] = boundAt(qs[i], /*upper=*/false);
    }
}

double
Predictor::confidence() const
{
    return 0.95;
}

QuantileEstimate
Predictor::boundAt(double q, bool upper) const
{
    (void)q;
    if (upper)
        return QuantileEstimate::infinite();
    return QuantileEstimate::of(0.0);
}

std::pair<QuantileEstimate, QuantileEstimate>
Predictor::interval(double q) const
{
    return {boundAt(q, /*upper=*/false), boundAt(q, /*upper=*/true)};
}

void
Predictor::finalizeTraining()
{
}

Expected<Unit>
Predictor::saveState(persist::StateWriter &writer) const
{
    (void)writer;
    return ParseError{"", 0, "saveState",
                      "predictor '" + name() +
                          "' does not support state persistence"};
}

Expected<Unit>
Predictor::loadState(persist::StateReader &reader)
{
    (void)reader;
    return ParseError{"", 0, "loadState",
                      "predictor '" + name() +
                          "' does not support state persistence"};
}

} // namespace core
} // namespace qdel
