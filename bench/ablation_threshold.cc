/**
 * @file
 * Ablation: the rare-event run-length threshold. Prints the
 * autocorrelation-indexed lookup table (quadrature-computed, the
 * deterministic equivalent of the paper's Monte Carlo) and compares
 * BMBP under the adaptive table against fixed thresholds on queues
 * with different dependence structure.
 *
 * Usage: ablation_threshold [--seed=N]
 */

#include <future>
#include <iostream>
#include <iterator>

#include "bench_common.hh"
#include "core/bmbp_predictor.hh"
#include "core/rare_event.hh"
#include "sim/replay/replay_simulator.hh"
#include "util/table_printer.hh"

namespace {

using namespace qdel;

sim::EvaluationCell
runWithThreshold(const trace::Trace &trace, int threshold_override,
                 const bench::BenchOptions &options)
{
    core::BmbpConfig config;
    config.quantile = options.quantile;
    config.confidence = options.confidence;
    config.runThresholdOverride = threshold_override;
    core::BmbpPredictor predictor(config,
                                  &bench::sharedTable(options.quantile));
    sim::ReplaySimulator simulator(bench::replayConfig(options));
    auto result = simulator.run(trace, predictor).value();

    sim::EvaluationCell cell;
    cell.jobs = trace.size();
    cell.evaluated = result.evaluatedJobs;
    cell.correctFraction = result.correctFraction;
    cell.medianRatio = result.medianRatio;
    cell.trims = predictor.trimCount();
    return cell;
}

} // namespace

int
main(int argc, char **argv)
{
    auto options = bench::parseOptions(argc, argv);

    // Part 1: the lookup table itself (paper Section 4.1).
    const auto &table = bench::sharedTable(options.quantile);
    TablePrinter lookup(
        "Rare-event run-length thresholds by lag-1 autocorrelation "
        "(q=.95, rare event < 5%).");
    lookup.setHeader({"rho", "threshold (consecutive misses)"});
    for (size_t i = 0; i < table.entries().size(); ++i) {
        lookup.addRow({TablePrinter::cell(0.1 * static_cast<double>(i), 1),
                       TablePrinter::cell(static_cast<long long>(
                           table.entries()[i]))});
    }
    lookup.print(std::cout);

    // Part 2: adaptive vs fixed thresholds, fanned out as a flat
    // (queue x threshold) grid on the evaluation pool. The custom
    // BmbpConfig keeps this off the factory path, so it submits raw
    // tasks; the table above already forced the shared-table build.
    ThreadPool pool(ThreadPool::resolveThreadCount(options.threads));
    TablePrinter comparison(
        "Ablation: adaptive (autocorrelation-indexed) vs fixed "
        "run-length thresholds (correct fraction [trims]).");
    comparison.setHeader({"Machine", "Queue", "adaptive", "fixed 2",
                          "fixed 3", "fixed 6", "fixed 12"});

    const std::vector<std::pair<const char *, const char *>> queues = {
        {"datastar", "normal"},
        {"lanl", "scavenger"},
        {"tacc2", "normal"},
        {"nersc", "regular"}};
    const int thresholds[] = {0, 2, 3, 6, 12};
    std::vector<const workload::QueueProfile *> profiles;
    for (const auto &[site, queue] : queues)
        profiles.push_back(&workload::findProfile(site, queue));
    const auto traces =
        bench::synthesizeSuite(pool, profiles, options.seed);

    std::vector<std::future<sim::EvaluationCell>> futures;
    for (const auto &trace : traces) {
        for (int threshold : thresholds) {
            futures.push_back(pool.submit(
                [trace, threshold, &options] {
                    return runWithThreshold(*trace, threshold, options);
                }));
        }
    }

    for (size_t r = 0; r < queues.size(); ++r) {
        std::vector<std::string> row = {queues[r].first,
                                        queues[r].second};
        for (size_t c = 0; c < std::size(thresholds); ++c) {
            auto cell = futures[r * std::size(thresholds) + c].get();
            std::string text =
                TablePrinter::cell(cell.correctFraction, 3) + " [" +
                TablePrinter::cell(static_cast<long long>(cell.trims)) +
                "]";
            if (!cell.correct(options.quantile))
                text += "*";
            row.push_back(std::move(text));
        }
        comparison.addRow(std::move(row));
    }
    comparison.print(std::cout);

    std::cout
        << "\nA threshold of 2 trims constantly (a single unlucky pair "
           "of misses discards the\nhistory), hurting accuracy; very "
           "large thresholds react too slowly to genuine\nchange "
           "points. The adaptive table picks 3-5 for the dependence "
           "levels these traces\nexhibit.\n";
    return 0;
}
