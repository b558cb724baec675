/**
 * @file
 * Reproduction of paper Table 3: fraction of correct job wait-time
 * predictions per machine/queue for the three methods (BMBP,
 * log-normal without trimming, log-normal with BMBP trimming),
 * predicting the .95 quantile at 95% confidence, 300 s refit epochs,
 * 10% training — on the synthetic Table 1 suite.
 *
 * Asterisk = method missed the advertised 0.95 (the paper's marker);
 * brackets = most accurate correct method (the paper's boldface).
 *
 * Usage: table3_correctness_by_queue [--seed=N] [--quantile=Q]
 *        [--confidence=C] [--epoch=S] [--train=F]
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

    TablePrinter table(
        "Table 3. Fraction of correct wait-time predictions per queue "
        "(q=.95, C=.95).");
    table.setHeader({"Machine", "Queue", "BMBP", "logn NoTrim",
                     "logn Trim"});

    size_t bmbp_correct = 0, notrim_correct = 0, trim_correct = 0;
    const auto rows = workload::table3Profiles();
    const auto traces =
        bench::synthesizeSuite(pool, rows, options.seed);
    const auto grid = bench::evaluateMethodGrid(
        pool, traces, {"bmbp", "lognormal", "lognormal-trim"},
        predictor_options, replay);
    for (size_t r = 0; r < rows.size(); ++r) {
        const auto *profile = rows[r];
        const std::vector<sim::EvaluationCell> &cells = grid[r];
        bmbp_correct += cells[0].correct(options.quantile);
        notrim_correct += cells[1].correct(options.quantile);
        trim_correct += cells[2].correct(options.quantile);

        auto formatted = bench::formatMethodCells(cells, options.quantile);
        table.addRow({profile->site, profile->queue, formatted[0],
                      formatted[1], formatted[2]});
    }

    table.print(std::cout);
    std::cout << "\nCorrect queues (of " << rows.size()
              << "): BMBP " << bmbp_correct << ", logn NoTrim "
              << notrim_correct << ", logn Trim " << trim_correct
              << ".\nPaper: BMBP 31/32 (all but lanl/short), "
                 "logn NoTrim 18/32, logn Trim 28/32.\n";
    return 0;
}
