/**
 * @file
 * Microbenchmarks of prediction cost (google-benchmark).
 *
 * The paper reports an average of 8 ms per prediction on a 1 GHz
 * Pentium III across its 1.2 million simulated predictions and argues
 * that is fast enough for live forecasting. These benchmarks measure
 * the same operations in this implementation: feeding an observation
 * into the history (observe), recomputing the bound (refit), and the
 * combination, across history sizes from the trimmed minimum (59) to
 * the largest queue in the study (~350k jobs).
 */

#include <vector>

#include <benchmark/benchmark.h>

#include "core/bmbp_predictor.hh"
#include "core/lognormal_predictor.hh"
#include "core/rare_event.hh"
#include "serve/bound_registry.hh"
#include "stats/descriptive.hh"
#include "stats/quantile_bounds.hh"
#include "stats/rng.hh"
#include "stats/tolerance.hh"

namespace {

using namespace qdel;

/** Preload a predictor with n log-normal observations. */
template <typename Predictor>
void
preload(Predictor &predictor, size_t n, uint64_t seed)
{
    stats::Rng rng(seed);
    for (size_t i = 0; i < n; ++i)
        predictor.observe(rng.logNormal(4.0, 2.0));
    predictor.refit();
}

void
BM_BmbpRefit(benchmark::State &state)
{
    core::BmbpConfig config;
    config.trimmingEnabled = false;
    core::BmbpPredictor predictor(config);
    preload(predictor, static_cast<size_t>(state.range(0)), 1);
    for (auto _ : state) {
        predictor.refit();
        benchmark::DoNotOptimize(predictor.upperBound());
    }
}
BENCHMARK(BM_BmbpRefit)->Arg(59)->Arg(1000)->Arg(30000)->Arg(350000);

void
BM_BmbpObserveAndRefit(benchmark::State &state)
{
    core::BmbpConfig config;
    core::BmbpPredictor predictor(config);
    preload(predictor, static_cast<size_t>(state.range(0)), 2);
    stats::Rng rng(3);
    for (auto _ : state) {
        predictor.observe(rng.logNormal(4.0, 2.0));
        predictor.refit();
        benchmark::DoNotOptimize(predictor.upperBound());
    }
}
BENCHMARK(BM_BmbpObserveAndRefit)->Arg(59)->Arg(30000)->Arg(350000);

void
BM_LogNormalRefit(benchmark::State &state)
{
    core::LogNormalPredictor predictor;
    preload(predictor, static_cast<size_t>(state.range(0)), 4);
    for (auto _ : state) {
        predictor.refit();
        benchmark::DoNotOptimize(predictor.upperBound());
    }
}
BENCHMARK(BM_LogNormalRefit)->Arg(59)->Arg(1000)->Arg(350000);

void
BM_LogNormalColdEntry(benchmark::State &state)
{
    // The cold path of a new `--method=lognormal` serve entry: a fresh
    // predictor observes 300 waits, refitting and publishing the
    // 13-quantile upper+lower grid after each one, all on exact K'
    // factors. One untimed entry runs first, as an earlier entry of a
    // running daemon would have: the exact factors are memoized
    // process-wide, so only the first entry in a process computes them.
    stats::Rng rng(6);
    std::vector<double> waits;
    for (int i = 0; i < 300; ++i)
        waits.push_back(rng.logNormal(4.0, 2.0));
    core::QuantileEstimate upper[serve::kGridCount];
    core::QuantileEstimate lower[serve::kGridCount];
    const auto entry = [&] {
        core::LogNormalPredictor predictor;
        for (double wait : waits) {
            predictor.observe(wait);
            predictor.refit();
            predictor.boundGrid(serve::kGridQuantiles, serve::kGridCount,
                                upper, lower);
            benchmark::DoNotOptimize(upper);
            benchmark::DoNotOptimize(lower);
        }
    };
    entry();
    for (auto _ : state)
        entry();
}
BENCHMARK(BM_LogNormalColdEntry)->Unit(benchmark::kMillisecond);

void
BM_BmbpQuantileSpectrum(benchmark::State &state)
{
    // Table 8 style: four on-demand bounds from the current history.
    core::BmbpConfig config;
    config.trimmingEnabled = false;
    core::BmbpPredictor predictor(config);
    preload(predictor, 30000, 5);
    for (auto _ : state) {
        benchmark::DoNotOptimize(predictor.boundAt(0.25, false));
        benchmark::DoNotOptimize(predictor.boundAt(0.5, true));
        benchmark::DoNotOptimize(predictor.boundAt(0.75, true));
        benchmark::DoNotOptimize(predictor.boundAt(0.95, true));
    }
}
BENCHMARK(BM_BmbpQuantileSpectrum);

void
BM_BmbpRefitCachedIndex(benchmark::State &state)
{
    // The refit() hot path as shipped: the BoundIndexCache advances
    // the order-statistic index through the binomial recurrence as the
    // history grows. Compare against BM_BmbpRefitUncachedIndex.
    stats::BoundIndexCache cache(0.95, 0.95);
    size_t n = 59;
    for (auto _ : state) {
        benchmark::DoNotOptimize(cache.upperIndex(n));
        if (++n > 199)
            n = 59;  // stay on the exact path (n(1-q) < 10)
    }
}
BENCHMARK(BM_BmbpRefitCachedIndex);

void
BM_BmbpRefitUncachedIndex(benchmark::State &state)
{
    // The same growing-history index stream through the free function
    // (a fresh binary search over the binomial CDF per call) — what
    // every refit() paid before the cache.
    size_t n = 59;
    for (auto _ : state) {
        benchmark::DoNotOptimize(stats::upperBoundIndex(n, 0.95, 0.95));
        if (++n > 199)
            n = 59;
    }
}
BENCHMARK(BM_BmbpRefitUncachedIndex);

void
BM_ExactBinomialIndex(benchmark::State &state)
{
    const size_t n = static_cast<size_t>(state.range(0));
    for (auto _ : state)
        benchmark::DoNotOptimize(
            stats::upperBoundIndexExact(n, 0.95, 0.95));
}
BENCHMARK(BM_ExactBinomialIndex)->Arg(59)->Arg(1000)->Arg(100000);

void
BM_ApproxBinomialIndex(benchmark::State &state)
{
    const size_t n = static_cast<size_t>(state.range(0));
    for (auto _ : state)
        benchmark::DoNotOptimize(
            stats::upperBoundIndexApprox(n, 0.95, 0.95));
}
BENCHMARK(BM_ApproxBinomialIndex)->Arg(1000)->Arg(100000);

void
BM_ToleranceFactorExact(benchmark::State &state)
{
    const size_t n = static_cast<size_t>(state.range(0));
    for (auto _ : state)
        benchmark::DoNotOptimize(
            stats::normalToleranceFactorExact(n, 0.95, 0.95));
}
BENCHMARK(BM_ToleranceFactorExact)->Arg(10)->Arg(59)->Arg(300);

void
BM_RareEventTableBuild(benchmark::State &state)
{
    for (auto _ : state) {
        core::RareEventTable table(0.95, 0.05);
        benchmark::DoNotOptimize(table.entries());
    }
}
BENCHMARK(BM_RareEventTableBuild)->Unit(benchmark::kMillisecond);

void
BM_RunLengthThresholdSinglePass(benchmark::State &state)
{
    // One table entry via the shipped single-propagation calibration:
    // the retained-mass sequence for every run length falls out of one
    // O(R G^2) density propagation.
    for (auto _ : state)
        benchmark::DoNotOptimize(core::runLengthThreshold(0.8, 0.95));
}
BENCHMARK(BM_RunLengthThresholdSinglePass)
    ->Unit(benchmark::kMillisecond);

void
BM_RunLengthThresholdLegacy(benchmark::State &state)
{
    // The pre-rewrite calibration loop: one full propagation from
    // scratch per candidate run length (O(R^2 G^2) overall), expressed
    // through the public per-run-length probability query.
    for (auto _ : state) {
        int threshold = 65;
        for (int extra = 1; extra <= 64; ++extra) {
            const double retained =
                core::runContinuationProbability(0.8, 0.95, extra);
            if (retained < 0.05 - 1e-4) {
                threshold = extra + 1;
                break;
            }
        }
        benchmark::DoNotOptimize(threshold);
    }
}
BENCHMARK(BM_RunLengthThresholdLegacy)->Unit(benchmark::kMillisecond);

void
BM_QuantileMedian(benchmark::State &state)
{
    // The exact median QueueCore::result() reports for a replay: the
    // actual/predicted ratios are copied once per call, as
    // SpillDoubles::median() copies its resident values, then the two
    // central order statistics are selected.
    stats::Rng rng(13);
    std::vector<double> ratios(static_cast<size_t>(state.range(0)));
    for (double &ratio : ratios)
        ratio = rng.logNormal(0.0, 1.5);
    for (auto _ : state)
        benchmark::DoNotOptimize(stats::median(ratios));
}
BENCHMARK(BM_QuantileMedian)->Arg(1000000)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
