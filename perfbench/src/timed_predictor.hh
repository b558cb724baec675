/**
 * @file
 * A forwarding core::Predictor that times every call into the wrapped
 * predictor. The traced offline-replay run wraps each predictor in one
 * so the replay's time splits into predictor work (observe, refit,
 * bound lookups) and the simulator's own loop, without touching the
 * program's sources. Each timed call is also charged to the caller's
 * open span, so the enclosing replay span's self time excludes it.
 */

#ifndef QDEL_PERFBENCH_TIMED_PREDICTOR_HH
#define QDEL_PERFBENCH_TIMED_PREDICTOR_HH

#include <cstdint>
#include <memory>
#include <string>

#include "core/predictor.hh"

namespace perfbench {

/** Call counts and busy time of one wrapped predictor. */
struct PredictorTimes
{
    uint64_t observeCalls = 0;  //!< Waits observed (batch = its count).
    int64_t observeNs = 0;
    uint64_t refitCalls = 0;
    int64_t refitNs = 0;
    uint64_t boundCalls = 0;    //!< upperBound() + boundAt() + interval().
    int64_t boundNs = 0;

    PredictorTimes &operator+=(const PredictorTimes &other);
};

class TimedPredictor final : public qdel::core::Predictor
{
  public:
    explicit TimedPredictor(std::unique_ptr<qdel::core::Predictor> inner);

    const PredictorTimes &times() const { return times_; }

    /** Change-point trims of the inner predictor (0 if it has none). */
    size_t trimCount() const;

    std::string name() const override;
    void observe(double wait_seconds) override;
    void observeBatch(const double *waits, size_t count) override;
    void refit() override;
    qdel::core::QuantileEstimate upperBound() const override;
    qdel::core::QuantileEstimate boundAt(double q,
                                         bool upper) const override;
    std::pair<qdel::core::QuantileEstimate, qdel::core::QuantileEstimate>
    interval(double q) const override;
    void finalizeTraining() override;
    size_t historySize() const override;
    qdel::Expected<qdel::Unit>
    saveState(qdel::persist::StateWriter &writer) const override;
    qdel::Expected<qdel::Unit>
    loadState(qdel::persist::StateReader &reader) override;

  private:
    std::unique_ptr<qdel::core::Predictor> inner_;
    /** Mutable: the bound lookups are const on the interface. */
    mutable PredictorTimes times_;
};

} // namespace perfbench

#endif // QDEL_PERFBENCH_TIMED_PREDICTOR_HH
