/**
 * @file
 * Related-work comparison (paper Section 2): BMBP's statistical bounds
 * versus the Smith-Foster-Taylor scheduler-simulation approach, which
 * predicts each job's start time by simulating the batch scheduler
 * forward using user runtime estimates.
 *
 * The machine simulator generates ground truth (so the
 * scheduler-simulation approach gets *exactly* the knowledge it
 * assumes: the true policy and the machine state); the comparison
 * shows what the paper argues — when runtime estimates are loose, the
 * deterministic predictions scatter and carry no confidence statement,
 * while BMBP's bounds hold at their advertised rate regardless.
 *
 * Usage: ablation_forward [--seed=N]
 */

#include <algorithm>
#include <cmath>
#include <future>
#include <iostream>
#include <vector>

#include "bench_common.hh"
#include "sim/batch/batch_simulator.hh"
#include "sim/batch/job_generator.hh"
#include "util/table_printer.hh"

namespace {

using namespace qdel;

/**
 * One row of the comparison: generate the workload at the given
 * runtime-estimate quality, run the machine with arrival-time
 * forecasts, score the scheduler-simulation point predictions, and
 * replay BMBP on the same waits. Self-contained (own RNG, own
 * machine), so rows run concurrently on the evaluation pool.
 */
std::vector<std::string>
forwardRow(double overestimate, const bench::BenchOptions &options)
{
    stats::Rng rng(options.seed + 100);
    sim::JobGeneratorConfig generator;
    generator.startTime = 0.0;
    generator.durationSeconds = 360.0 * 86400.0;
    sim::QueueSpec spec;
    spec.name = "normal";
    spec.jobsPerDay = 12.0;  // ~85% utilization: queuing is common
    spec.maxProcs = 64;
    spec.runMedianSeconds = 2.0 * 3600.0;
    spec.runLogSigma = 1.6;
    spec.maxRunSeconds = 24.0 * 3600.0;
    spec.overestimateMax = overestimate;
    generator.queues = {spec};
    auto jobs = sim::generateJobs(generator, rng);

    sim::BatchSimConfig config;
    config.totalProcs = 96;
    config.policy = "easy-backfill";
    config.forecastAtArrival = true;
    sim::BatchSimulator machine(config);
    auto done = machine.run(jobs);

    // Scheduler-simulation scoring: a point forecast is "correct"
    // under the paper's criterion when it is >= the realized start
    // (i.e. used as a bound); also report its median absolute
    // error as the natural point-estimate metric.
    // Only jobs that actually queued are informative: instant
    // starts are forecast trivially by both approaches.
    size_t covered = 0;
    std::vector<double> abs_errors;
    for (const auto &job : done) {
        if (job.waitSeconds() < 60.0)
            continue;
        auto it = machine.forecasts().find(job.id);
        if (it == machine.forecasts().end())
            continue;
        covered += it->second >= job.startTime - 1e-6;
        abs_errors.push_back(std::fabs(it->second - job.startTime));
    }
    std::sort(abs_errors.begin(), abs_errors.end());
    const double median_error =
        abs_errors.empty() ? 0.0 : abs_errors[abs_errors.size() / 2];
    const double forward_correct =
        abs_errors.empty() ? 0.0
                           : static_cast<double>(covered) /
                                 static_cast<double>(abs_errors.size());

    // BMBP on the same waits.
    auto trace = sim::BatchSimulator::toTrace(done, "fwd", "machine");
    auto cell = sim::evaluateTrace(trace, "bmbp",
                                   bench::predictorOptions(options),
                                   bench::replayConfig(options));

    return {TablePrinter::cell(overestimate, 1),
            TablePrinter::cell(static_cast<long long>(abs_errors.size())),
            TablePrinter::cell(forward_correct, 3),
            TablePrinter::cell(median_error, 0),
            TablePrinter::cell(cell.correctFraction, 3),
            TablePrinter::cellSci(cell.medianRatio, 2)};
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace qdel;
    auto options = bench::parseOptions(argc, argv);

    TablePrinter table(
        "Related work: scheduler-simulation point predictions vs BMBP "
        "bounds, by runtime-estimate quality.");
    table.setHeader({"estimate error (max x)", "queued jobs",
                     "fwd correct", "fwd median |err| (s)",
                     "bmbp correct", "bmbp med ratio"});

    // Each estimate-quality row is an independent end-to-end
    // experiment; run the four rows concurrently and collect them in
    // sweep order. Shared table first: the workers only read it.
    bench::sharedTable(options.quantile);
    ThreadPool pool(ThreadPool::resolveThreadCount(options.threads));
    std::vector<std::future<std::vector<std::string>>> rows;
    for (double overestimate : {1.0, 2.0, 5.0, 10.0}) {
        rows.push_back(pool.submit([overestimate, &options] {
            return forwardRow(overestimate, options);
        }));
    }
    for (auto &row : rows)
        table.addRow(row.get());

    table.print(std::cout);
    std::cout
        << "\nWith perfect estimates (1.0x) the scheduler simulation is "
           "exact. As estimates\nloosen to realistic levels (5-10x "
           "over-estimation is common in production logs),\nits "
           "start-time forecasts inflate into loose ad-hoc bounds with "
           "no stated\nconfidence — and it still requires knowing the "
           "exact scheduling policy, which the\npaper notes sites do "
           "not publish. BMBP needs neither and holds its advertised\n"
           "confidence in every row.\n";
    return 0;
}
