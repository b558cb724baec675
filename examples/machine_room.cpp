/**
 * @file
 * Machine room: build a space-shared supercomputer from parts, run a
 * multi-queue workload through it under EASY backfilling, flip the
 * scheduling policy mid-run (an administrator intervention), and show
 * that BMBP delivers correct wait-time bounds on the machine's own
 * queuing process — the full from-first-principles pipeline.
 *
 * Usage:
 *   ./build/examples/machine_room [--procs=128] [--days=360]
 *                                 [--policy=easy-backfill] [--seed=N]
 */

#include <cstdio>

#include "core/rare_event.hh"
#include "sim/batch/batch_simulator.hh"
#include "sim/batch/job_generator.hh"
#include "sim/batch/scheduler.hh"
#include "sim/replay/evaluation.hh"
#include "sim/replay/stream_replay.hh"
#include "util/cli.hh"
#include "util/string_utils.hh"

int
main(int argc, char **argv)
{
    using namespace qdel;
    CommandLine cli(argc, argv);
    const int procs = static_cast<int>(cliValue(cli.getInt("procs", 128)));
    const double days = cliValue(cli.getDouble("days", 360.0));
    const std::string policy =
        cli.getString("policy", "easy-backfill");
    const auto seed = static_cast<uint64_t>(cliValue(cli.getInt("seed", 9)));
    if (auto known = sim::tryMakeScheduler(policy); !known.ok()) {
        std::fprintf(stderr, "error: %s\n", known.error().str().c_str());
        return 1;
    }
    if (procs < 2 || !(days > 0.0)) {
        std::fprintf(stderr,
                     "error: --procs must be >= 2 and --days > 0\n");
        return 1;
    }

    // 1) Offered workload: three queues with different priorities and
    //    job shapes, sized for ~70% utilization of the machine.
    stats::Rng rng(seed);
    sim::JobGeneratorConfig generator;
    generator.startTime = 0.0;
    generator.durationSeconds = days * 86400.0;

    sim::QueueSpec normal;
    normal.name = "normal";
    normal.jobsPerDay = 6.0;
    normal.maxProcs = procs / 2;
    normal.runMedianSeconds = 2.0 * 3600.0;
    normal.runLogSigma = 1.5;
    normal.maxRunSeconds = 24.0 * 3600.0;

    sim::QueueSpec debug;
    debug.name = "debug";
    debug.priority = 5;
    debug.jobsPerDay = 16.0;
    debug.maxProcs = 8;
    debug.runMedianSeconds = 600.0;
    debug.maxRunSeconds = 1800.0;

    sim::QueueSpec wide;
    wide.name = "wide";
    wide.priority = 0;
    wide.jobsPerDay = 1.0;
    wide.minProcs = procs / 2;
    wide.maxProcs = procs;
    wide.runMedianSeconds = 4.0 * 3600.0;
    wide.maxRunSeconds = 36.0 * 3600.0;

    generator.queues = {normal, debug, wide};
    auto jobs = sim::generateJobs(generator, rng);
    std::printf("offered workload: %zu jobs over %.0f days, 3 queues\n",
                jobs.size(), days);

    // 2) The machine: space-shared partitions under the chosen policy,
    //    with an administrator intervention at half time.
    sim::BatchSimConfig config;
    config.totalProcs = procs;
    config.policy = policy;
    config.changes = {{days * 86400.0 / 2.0, "fcfs"}};
    sim::BatchSimulator machine(config);
    auto done = machine.run(jobs);

    const auto &stats = machine.stats();
    std::printf("machine: %d procs, policy %s -> fcfs at "
                "half time\n", procs, policy.c_str());
    std::printf("  utilization:      %.1f%%\n",
                100.0 * stats.utilization);
    std::printf("  backfill starts:  %zu\n", stats.backfillStarts);
    std::printf("  makespan:         %s\n",
                formatDuration(stats.makespan).c_str());

    // 3) Predict bounds on the machine's own queuing delays, per queue.
    auto trace = sim::BatchSimulator::toTrace(done, "example", "machine");
    core::RareEventTable table(0.95, 0.05);
    core::PredictorOptions options;
    options.rareEventTable = &table;

    std::printf("\nBMBP on the machine's wait times (q=.95, C=.95):\n");
    std::printf("  %-8s %8s %10s %12s %10s\n", "queue", "jobs",
                "correct", "med ratio", "trims");
    auto sweep = sim::replayStream(trace, "bmbp", options).value();
    for (const auto &qr : sweep.queues) {
        const sim::ReplayResult &r = qr.result;
        if (r.totalJobs < 200)
            continue;
        std::printf("  %-8s %8zu %9.3f%s %12.2e %10zu\n", qr.queue.c_str(),
                    r.totalJobs, r.correctFraction,
                    sim::meetsQuantile(r.correctFraction, 0.95) ? " " : "*",
                    r.medianRatio, qr.trims);
    }

    std::printf("\nEven with a mid-run policy flip, the non-parametric "
                "bounds stay at their\nadvertised confidence — the "
                "behavior the paper verifies on nine years of\n"
                "production logs.\n");
    return 0;
}
