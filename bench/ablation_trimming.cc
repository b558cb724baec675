/**
 * @file
 * Ablation: what does BMBP's change-point detection buy? Runs BMBP
 * with and without trimming (plus the naive empirical percentile) over
 * the strongly nonstationary queues of the suite and reports
 * correctness and accuracy for each.
 *
 * Usage: ablation_trimming [--seed=N]
 */

#include <iostream>

#include "bench_common.hh"
#include "util/table_printer.hh"

int
main(int argc, char **argv)
{
    using namespace qdel;
    auto options = bench::parseOptions(argc, argv);
    auto predictor_options = bench::predictorOptions(options);
    auto replay = bench::replayConfig(options);
    ThreadPool pool(ThreadPool::resolveThreadCount(options.threads));

    const std::vector<std::pair<const char *, const char *>> queues = {
        {"datastar", "normal"}, {"datastar", "TGnormal"},
        {"lanl", "scavenger"},  {"nersc", "interactive"},
        {"sdsc", "low"},        {"tacc2", "serial"},
    };

    TablePrinter table(
        "Ablation: BMBP change-point trimming on strongly "
        "nonstationary queues (correct fraction / median ratio).");
    table.setHeader({"Machine", "Queue", "bmbp", "bmbp-notrim",
                     "percentile", "ratio bmbp", "ratio notrim"});

    std::vector<const workload::QueueProfile *> profiles;
    for (const auto &[site, queue] : queues)
        profiles.push_back(&workload::findProfile(site, queue));
    const auto traces =
        bench::synthesizeSuite(pool, profiles, options.seed);
    const auto grid = bench::evaluateMethodGrid(
        pool, traces, {"bmbp", "bmbp-notrim", "percentile"},
        predictor_options, replay);

    for (size_t r = 0; r < queues.size(); ++r) {
        const auto &with_trim = grid[r][0];
        const auto &without = grid[r][1];
        const auto &naive = grid[r][2];

        auto fmt = [&](const sim::EvaluationCell &cell) {
            std::string text =
                TablePrinter::cell(cell.correctFraction, 3);
            return cell.correct(options.quantile)
                       ? text
                       : TablePrinter::flagged(text);
        };
        table.addRow({queues[r].first, queues[r].second, fmt(with_trim),
                      fmt(without), fmt(naive),
                      TablePrinter::cellSci(with_trim.medianRatio, 2),
                      TablePrinter::cellSci(without.medianRatio, 2)});
    }

    table.print(std::cout);
    std::cout
        << "\nWithout trimming, BMBP's full history straddles regimes: "
           "correctness can survive\n(order statistics are robust) but "
           "accuracy degrades, and abrupt upward level\nshifts produce "
           "long runs of misses. The naive percentile has no confidence "
           "margin\nand undercovers whenever the distribution shifts "
           "upward.\n";
    return 0;
}
