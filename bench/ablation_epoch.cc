/**
 * @file
 * Ablation: sensitivity to the refit epoch. The paper refits every
 * five minutes (modeling periodic batch-queue dumps) and claims that
 * refitting per job (epoch 0) changes results only minimally. This
 * bench sweeps the epoch length over representative queues.
 *
 * Usage: ablation_epoch [--seed=N]
 */

#include <iostream>
#include <iterator>

#include "bench_common.hh"
#include "util/table_printer.hh"

int
main(int argc, char **argv)
{
    using namespace qdel;
    auto options = bench::parseOptions(argc, argv);
    auto predictor_options = bench::predictorOptions(options);
    ThreadPool pool(ThreadPool::resolveThreadCount(options.threads));

    const double epochs[] = {0.0, 300.0, 3600.0, 6.0 * 3600.0};
    const std::vector<std::pair<const char *, const char *>> queues = {
        {"datastar", "normal"},
        {"nersc", "debug"},
        {"tacc2", "serial"},
        {"lanl", "shared"},
    };

    TablePrinter table(
        "Ablation: BMBP correct fraction vs model-refit epoch "
        "(paper default: 300 s).");
    table.setHeader({"Machine", "Queue", "per-job", "300 s", "1 h",
                     "6 h"});

    std::vector<const workload::QueueProfile *> profiles;
    for (const auto &[site, queue] : queues)
        profiles.push_back(&workload::findProfile(site, queue));
    const auto traces =
        bench::synthesizeSuite(pool, profiles, options.seed);

    // Flat (queue x epoch) fan-out; each cell carries its own replay
    // configuration, so this is a raw EvaluationJob suite rather than
    // the shared-config method grid.
    std::vector<sim::EvaluationJob> jobs;
    for (const auto &trace : traces) {
        for (double epoch : epochs) {
            sim::ReplayConfig replay;
            replay.epochSeconds = epoch;
            replay.trainFraction = options.trainFraction;
            jobs.push_back({trace, "bmbp", predictor_options, replay});
        }
    }
    const auto cells = sim::evaluateSuite(pool, jobs);

    for (size_t r = 0; r < queues.size(); ++r) {
        std::vector<std::string> row = {queues[r].first,
                                        queues[r].second};
        for (size_t e = 0; e < std::size(epochs); ++e) {
            const auto &cell = cells[r * std::size(epochs) + e];
            std::string text =
                TablePrinter::cell(cell.correctFraction, 3);
            row.push_back(cell.correct(options.quantile)
                              ? text
                              : TablePrinter::flagged(text));
        }
        table.addRow(std::move(row));
    }

    table.print(std::cout);
    std::cout << "\nAs the paper observes, the effect of the 300 s epoch "
                 "versus per-job refits is\nminimal; very long epochs "
                 "(hours) begin to lag fast-moving queues.\n";
    return 0;
}
