/**
 * @file
 * Implementation of the experiment helpers.
 */

#include "sim/replay/evaluation.hh"

#include "core/bmbp_predictor.hh"
#include "core/lognormal_predictor.hh"
#include "obs/domain_metrics.hh"
#include "obs/obs.hh"
#include "util/logging.hh"

namespace qdel {
namespace sim {

size_t
predictorTrimCount(const core::Predictor &predictor)
{
    if (auto *bmbp = dynamic_cast<const core::BmbpPredictor *>(&predictor))
        return bmbp->trimCount();
    if (auto *logn =
            dynamic_cast<const core::LogNormalPredictor *>(&predictor))
        return logn->trimCount();
    return 0;
}

EvaluationCell
evaluateTrace(const trace::Trace &t, const std::string &method,
              const core::PredictorOptions &options,
              const ReplayConfig &config)
{
    // Contract: method/options/config come pre-validated (front ends
    // run tryMakePredictor()/ReplayConfig::validate() on user input
    // first), so unwrapping here panics only on a programmer error.
    auto predictor = core::makePredictor(method, options);
    ReplaySimulator simulator(config);
    const ReplayResult outcome = simulator.run(t, *predictor).value();

    EvaluationCell cell;
    cell.jobs = t.size();
    cell.evaluated = outcome.evaluatedJobs;
    cell.correctFraction = outcome.correctFraction;
    cell.medianRatio = outcome.medianRatio;
    cell.trims = predictorTrimCount(*predictor);
    return cell;
}

std::vector<EvaluationCell>
evaluateSuite(ThreadPool &pool, const std::vector<EvaluationJob> &jobs)
{
    std::vector<std::future<EvaluationCell>> futures;
    futures.reserve(jobs.size());
    for (const EvaluationJob &job : jobs) {
        if (!job.trace)
            panic("evaluateSuite: null trace");
        futures.push_back(pool.submit([&job] {
            QDEL_OBS_SPAN(span, obs::replayMetrics().evalTaskSeconds,
                          obs::EventType::Span, "eval_trace");
            return evaluateTrace(*job.trace, job.method, job.options,
                                 job.config);
        }));
    }
    std::vector<EvaluationCell> cells;
    cells.reserve(jobs.size());
    for (auto &future : futures)
        cells.push_back(future.get());
    return cells;
}

} // namespace sim
} // namespace qdel
