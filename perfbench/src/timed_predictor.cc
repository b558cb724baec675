/**
 * @file
 * Implementation of the timing predictor decorator.
 */

#include "timed_predictor.hh"

#include "report.hh"
#include "sim/replay/evaluation.hh"
#include "spans.hh"

namespace perfbench {

namespace {

/** Time one forwarded call into @p ns and the caller's open span. */
template <typename Fn>
auto
timed(int64_t &ns, Fn &&fn)
{
    struct Charge
    {
        int64_t &ns;
        int64_t start = nowNs();
        ~Charge()
        {
            const int64_t spent = nowNs() - start;
            ns += spent;
            spans::chargeChild(spent);
        }
    } charge{ns};
    return fn();
}

} // namespace

PredictorTimes &
PredictorTimes::operator+=(const PredictorTimes &other)
{
    observeCalls += other.observeCalls;
    observeNs += other.observeNs;
    refitCalls += other.refitCalls;
    refitNs += other.refitNs;
    boundCalls += other.boundCalls;
    boundNs += other.boundNs;
    return *this;
}

TimedPredictor::TimedPredictor(std::unique_ptr<qdel::core::Predictor> inner)
    : inner_(std::move(inner))
{
}

size_t
TimedPredictor::trimCount() const
{
    return qdel::sim::predictorTrimCount(*inner_);
}

std::string
TimedPredictor::name() const
{
    return inner_->name();
}

void
TimedPredictor::observe(double wait_seconds)
{
    ++times_.observeCalls;
    timed(times_.observeNs, [&] { inner_->observe(wait_seconds); });
}

void
TimedPredictor::observeBatch(const double *waits, size_t count)
{
    times_.observeCalls += count;
    timed(times_.observeNs, [&] { inner_->observeBatch(waits, count); });
}

void
TimedPredictor::refit()
{
    ++times_.refitCalls;
    timed(times_.refitNs, [&] { inner_->refit(); });
}

qdel::core::QuantileEstimate
TimedPredictor::upperBound() const
{
    ++times_.boundCalls;
    return timed(times_.boundNs, [&] { return inner_->upperBound(); });
}

qdel::core::QuantileEstimate
TimedPredictor::boundAt(double q, bool upper) const
{
    ++times_.boundCalls;
    return timed(times_.boundNs, [&] { return inner_->boundAt(q, upper); });
}

std::pair<qdel::core::QuantileEstimate, qdel::core::QuantileEstimate>
TimedPredictor::interval(double q) const
{
    ++times_.boundCalls;
    return timed(times_.boundNs, [&] { return inner_->interval(q); });
}

void
TimedPredictor::finalizeTraining()
{
    inner_->finalizeTraining();
}

size_t
TimedPredictor::historySize() const
{
    return inner_->historySize();
}

qdel::Expected<qdel::Unit>
TimedPredictor::saveState(qdel::persist::StateWriter &writer) const
{
    return inner_->saveState(writer);
}

qdel::Expected<qdel::Unit>
TimedPredictor::loadState(qdel::persist::StateReader &reader)
{
    return inner_->loadState(reader);
}

} // namespace perfbench
