/**
 * @file
 * Ablation: scheduling policy vs queuing behaviour vs predictability.
 * Runs the same offered workload through all four policies (FCFS,
 * priority-FCFS, EASY backfill, conservative backfill) and reports
 * machine efficiency, the wait-time distribution they produce, and
 * whether BMBP bounds the resulting waits at its advertised level —
 * the paper's premise that BMBP adapts to *any* local policy, made
 * concrete.
 *
 * Usage: ablation_policies [--seed=N]
 */

#include <future>
#include <iostream>

#include "bench_common.hh"
#include "sim/batch/batch_simulator.hh"
#include "sim/batch/job_generator.hh"
#include "util/table_printer.hh"

int
main(int argc, char **argv)
{
    using namespace qdel;
    auto options = bench::parseOptions(argc, argv);

    stats::Rng rng(options.seed + 7);
    sim::JobGeneratorConfig generator;
    generator.startTime = 0.0;
    generator.durationSeconds = 240.0 * 86400.0;
    sim::QueueSpec normal;
    normal.name = "normal";
    normal.jobsPerDay = 11.0;
    normal.maxProcs = 64;
    normal.runMedianSeconds = 2.0 * 3600.0;
    normal.runLogSigma = 1.5;
    normal.maxRunSeconds = 24.0 * 3600.0;
    normal.overestimateMax = 4.0;
    sim::QueueSpec debug;
    debug.name = "debug";
    debug.priority = 5;
    debug.jobsPerDay = 18.0;
    debug.maxProcs = 8;
    debug.runMedianSeconds = 600.0;
    debug.maxRunSeconds = 1800.0;
    generator.queues = {normal, debug};
    auto jobs = sim::generateJobs(generator, rng);

    TablePrinter table(
        "Ablation: the same workload under every scheduling policy "
        "(waits in seconds; BMBP on the 'normal' queue).");
    table.setHeader({"policy", "util %", "backfills", "median wait",
                     "mean wait", "p95 wait", "bmbp correct"});

    // Each policy row is a full machine simulation plus a BMBP replay;
    // the four rows share only the (read-only) offered workload, so
    // they run whole-row-per-task on the evaluation pool and are
    // collected in policy order. Build the shared rare-event table
    // before fanning out.
    bench::sharedTable(options.quantile);
    ThreadPool pool(ThreadPool::resolveThreadCount(options.threads));
    std::vector<std::future<std::vector<std::string>>> rows;
    for (const char *policy :
         {"fcfs", "priority-fcfs", "easy-backfill",
          "conservative-backfill"}) {
        rows.push_back(pool.submit([policy, &jobs,
                                                &options] {
            sim::BatchSimConfig config;
            config.totalProcs = 96;
            config.policy = policy;
            sim::BatchSimulator machine(config);
            auto done = machine.run(jobs);
            auto trace = sim::BatchSimulator::toTrace(done, "pol", "m");
            auto normal_trace = trace.filterByQueue("normal");
            auto waits = normal_trace.waitTimes();
            auto summary = normal_trace.summary();

            auto cell =
                sim::evaluateTrace(normal_trace, "bmbp",
                                   bench::predictorOptions(options),
                                   bench::replayConfig(options));
            std::string correct =
                TablePrinter::cell(cell.correctFraction, 3);
            if (!cell.correct(options.quantile))
                correct = TablePrinter::flagged(correct);

            return std::vector<std::string>{
                policy,
                TablePrinter::cell(100.0 * machine.stats().utilization,
                                   1),
                TablePrinter::cell(static_cast<long long>(
                    machine.stats().backfillStarts)),
                TablePrinter::cell(summary.median, 0),
                TablePrinter::cell(summary.mean, 0),
                TablePrinter::cell(stats::quantile(waits, 0.95), 0),
                correct};
        }));
    }
    for (auto &row : rows)
        table.addRow(row.get());

    table.print(std::cout);
    std::cout
        << "\nBackfilling policies slash small-job waits (and raise "
           "utilization) relative to\nplain FCFS; priorities reshape "
           "who waits. BMBP never sees the policy — only the\nwaits — "
           "and bounds all four regimes at its advertised confidence, "
           "the paper's\ncentral robustness claim.\n";
    return 0;
}
