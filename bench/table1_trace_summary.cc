/**
 * @file
 * Reproduction of paper Table 1: job submittal trace summary (job
 * count, mean / median / standard deviation of queuing delay) for all
 * 39 machine/queue rows, computed over the synthetic stand-in suite
 * and printed next to the published values.
 *
 * Usage: table1_trace_summary [--seed=N] [--csv=path]
 *        table1_trace_summary [--trace-cache[=DIR]] TRACE...
 *
 * With positional trace files the same summary columns are computed
 * for each file (loaded through the zero-copy parser and, with
 * --trace-cache, the binary ".qtc" cache) instead of the synthetic
 * suite.
 */

#include <iostream>

#include "bench_common.hh"
#include "util/csv_writer.hh"
#include "util/table_printer.hh"

int
main(int argc, char **argv)
{
    using namespace qdel;
    auto options = bench::parseOptions(argc, argv);

    if (!options.tracePaths.empty()) {
        TablePrinter table("Trace file summary. Units: seconds.");
        table.setHeader({"File", "Queue", "Jobs", "Avg", "Median",
                         "StdDev"});
        for (const auto &path : options.tracePaths) {
            const auto trace = bench::loadBenchTrace(path, options);
            for (const auto &queue : trace.queueNames()) {
                const auto sub = trace.filterByQueue(queue);
                const auto summary = sub.summary();
                table.addRow(
                    {path, queue.empty() ? "(none)" : queue,
                     TablePrinter::cell(
                         static_cast<long long>(summary.count)),
                     TablePrinter::cell(summary.mean, 0),
                     TablePrinter::cell(summary.median, 0),
                     TablePrinter::cell(summary.stddev, 0)});
            }
        }
        table.print(std::cout);
        return 0;
    }

    TablePrinter table(
        "Table 1. Job submittal traces (synthetic suite vs published). "
        "Units: seconds.");
    table.setHeader({"Site/Machine", "Queue", "Jobs", "Avg", "Avg(paper)",
                     "Median", "Median(paper)", "StdDev", "StdDev(paper)"});

    std::unique_ptr<CsvWriter> csv;
    if (!options.csvPath.empty()) {
        csv = std::make_unique<CsvWriter>(options.csvPath);
        csv->writeRow(std::vector<std::string>{
            "site", "queue", "jobs", "mean", "mean_paper", "median",
            "median_paper", "stddev", "stddev_paper"});
    }

    for (const auto &profile : workload::siteCatalog()) {
        auto trace = workload::synthesizeTrace(profile, options.seed);
        auto summary = trace.summary();
        table.addRow({profile.display, profile.queue,
                      TablePrinter::cell(
                          static_cast<long long>(summary.count)),
                      TablePrinter::cell(summary.mean, 0),
                      TablePrinter::cell(profile.meanDelay, 0),
                      TablePrinter::cell(summary.median, 0),
                      TablePrinter::cell(profile.medianDelay, 0),
                      TablePrinter::cell(summary.stddev, 0),
                      TablePrinter::cell(profile.stdDelay, 0)});
        if (csv) {
            csv->writeRow(std::vector<double>{
                0.0, 0.0, static_cast<double>(summary.count),
                summary.mean, profile.meanDelay, summary.median,
                profile.medianDelay, summary.stddev, profile.stdDelay});
        }
    }

    table.print(std::cout);
    std::cout << "\nEach row is generated from the published Table 1 "
                 "statistics (see DESIGN.md,\nsubstitution table); shape "
                 "agreement (heavy tails, median << mean) is the goal,\n"
                 "not exact standard deviations.\n";
    return 0;
}
