/**
 * @file
 * One-call experiment helpers shared by the bench harness, the tests,
 * and the examples: evaluate a prediction method over a trace (or over
 * a trace subdivided by processor-count range) and return the paper's
 * table cells (correct fraction, median actual/predicted ratio).
 *
 * The paper's tables are grids of independent cells: each replays one
 * trace against one freshly built predictor, the shared RareEventTable
 * is immutable and no predictor holds random state. evaluateSuite()
 * fans such a grid out over a ThreadPool and collects the cells in
 * submission order, so a table is byte-identical for any worker count.
 * Its tasks never wait on other tasks of the pool.
 */

#ifndef QDEL_SIM_REPLAY_EVALUATION_HH
#define QDEL_SIM_REPLAY_EVALUATION_HH

#include <memory>
#include <string>
#include <vector>

#include "core/predictor_factory.hh"
#include "sim/replay/replay_simulator.hh"
#include "trace/trace.hh"
#include "util/thread_pool.hh"

namespace qdel {
namespace sim {

/** One cell of a paper results table. */
struct EvaluationCell
{
    size_t jobs = 0;              //!< Jobs in the (sub)trace.
    size_t evaluated = 0;         //!< Scored predictions.
    double correctFraction = 0.0; //!< Paper Tables 3 and 5-7.
    double medianRatio = 0.0;     //!< Paper Table 4.
    size_t trims = 0;             //!< Change points detected (if any).
    /** The replay's calibration window: coverage (-1 when empty) and
     *  whether its binomial verdict fails. */
    double windowCoverage = -1.0;
    bool failing = false;

    /** @return true when the method met its advertised quantile. */
    bool
    correct(double quantile) const
    {
        // Round to two decimals the way the paper's tables do, so a
        // cell printing as "0.95" is not asterisked.
        const double rounded =
            static_cast<double>(
                static_cast<long long>(correctFraction * 100.0 + 0.5)) /
            100.0;
        return rounded >= quantile;
    }
};

/**
 * Change points detected by @p predictor so far — 0 for methods
 * without trimming machinery. Centralizes the dynamic_cast dance over
 * the trimming-capable predictor types.
 */
size_t predictorTrimCount(const core::Predictor &predictor);

/**
 * Replay @p t against a factory-built predictor.
 *
 * @param t       Trace (sorted by submission).
 * @param method  Factory name: "bmbp", "lognormal", "lognormal-trim", ...
 * @param options Quantile/confidence and shared rare-event table.
 * @param config  Replay epoch/training parameters.
 *
 * Contract: @p method, @p options and @p config are pre-validated
 * (user input goes through core::tryMakePredictor() and
 * ReplayConfig::validate() first); violations panic. This keeps the
 * hot evaluation path free of per-call error plumbing.
 */
EvaluationCell evaluateTrace(const trace::Trace &t,
                             const std::string &method,
                             const core::PredictorOptions &options,
                             const ReplayConfig &config = {});

/**
 * One independent table cell: a trace replayed against one method
 * under one configuration. The trace is shared (read-only) so a suite
 * evaluating M methods over the same trace does not copy it M times.
 */
struct EvaluationJob
{
    std::shared_ptr<const trace::Trace> trace;
    std::string method;
    core::PredictorOptions options;
    ReplayConfig config;
};

/** Evaluate every job on @p pool; cell i is jobs[i]'s, whatever the
 *  completion order or worker count. */
std::vector<EvaluationCell>
evaluateSuite(ThreadPool &pool, const std::vector<EvaluationJob> &jobs);

/**
 * One cell of a paper Table 5-7 row: @p t's jobs in processor range
 * @p range, evaluated as evaluateTrace() does. A subdivision with
 * fewer than @p min_jobs jobs comes back with jobs set but
 * evaluated == 0 (the paper prints "-" for those cells).
 */
EvaluationCell evaluateProcRange(const trace::Trace &t,
                                 const trace::ProcRange &range,
                                 const std::string &method,
                                 const core::PredictorOptions &options,
                                 const ReplayConfig &config,
                                 size_t min_jobs);

/** Paper Section 6.2: evaluateProcRange() over the four Table-5
 *  processor ranges, in order. */
std::vector<EvaluationCell>
evaluateByProcRange(const trace::Trace &t, const std::string &method,
                    const core::PredictorOptions &options,
                    const ReplayConfig &config = {},
                    size_t min_jobs = 1000);

} // namespace sim
} // namespace qdel

#endif // QDEL_SIM_REPLAY_EVALUATION_HH
