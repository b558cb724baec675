/**
 * @file
 * SWF workflow: predict wait-time bounds for a Standard Workload
 * Format log — the archive format real scheduler logs (Parallel
 * Workloads Archive) are published in.
 *
 * With no argument, the example writes a demonstration SWF file
 * generated by the machine simulator, then parses it back and runs
 * the per-queue evaluation — exactly the workflow for a downloaded
 * archive log:
 *
 *   ./build/examples/swf_predict [path/to/log.swf]
 *                                [--quantile=0.95] [--confidence=0.95]
 */

#include <cstdio>

#include "core/rare_event.hh"
#include "sim/batch/batch_simulator.hh"
#include "sim/batch/job_generator.hh"
#include "sim/replay/evaluation.hh"
#include "sim/replay/stream_replay.hh"
#include "trace/swf_format.hh"
#include "util/cli.hh"

namespace {

using namespace qdel;

/** Build a demo SWF file from the machine simulator. */
std::string
writeDemoSwf()
{
    stats::Rng rng(5);
    sim::JobGeneratorConfig generator;
    generator.startTime = 1e9;
    generator.durationSeconds = 180.0 * 86400.0;

    sim::QueueSpec batch;
    batch.name = "batch";
    batch.jobsPerDay = 8.0;
    batch.maxProcs = 64;
    batch.runMedianSeconds = 3.0 * 3600.0;
    sim::QueueSpec express;
    express.name = "express";
    express.priority = 5;
    express.jobsPerDay = 15.0;
    express.maxProcs = 8;
    express.runMedianSeconds = 900.0;
    express.maxRunSeconds = 3600.0;
    generator.queues = {batch, express};

    sim::BatchSimConfig config;
    config.totalProcs = 128;
    sim::BatchSimulator machine(config);
    auto done = machine.run(sim::generateJobs(generator, rng));
    auto trace = sim::BatchSimulator::toTrace(done, "demo", "machine");

    const std::string path = "/tmp/qdel_demo.swf";
    trace::saveSwfTrace(trace, path).value();
    return path;
}

} // namespace

int
main(int argc, char **argv)
{
    CommandLine cli(argc, argv);

    std::string path;
    if (!cli.positional().empty()) {
        path = cli.positional().front();
    } else {
        path = writeDemoSwf();
        std::printf("no SWF file given; wrote a demo log to %s\n\n",
                    path.c_str());
    }

    trace::IngestReport report;
    auto loaded = trace::loadSwfTrace(path, {}, &report);
    if (!loaded.ok()) {
        std::fprintf(stderr, "error: %s\n", loaded.error().str().c_str());
        return 1;
    }
    const trace::Trace trace = std::move(loaded).value();
    std::printf("parsed %zu jobs from %s (%s)\n", trace.size(),
                path.c_str(), report.summary().c_str());

    core::RareEventTable table(0.95, 0.05);
    core::PredictorOptions options;
    options.quantile = cliValue(cli.getDouble("quantile", 0.95));
    options.confidence = cliValue(cli.getDouble("confidence", 0.95));
    options.rareEventTable = &table;
    if (auto valid = options.validate(); !valid.ok()) {
        std::fprintf(stderr, "error: %s\n", valid.error().str().c_str());
        return 1;
    }

    std::printf("\nper-queue wait-time bound evaluation "
                "(q=%.2f, C=%.2f):\n",
                options.quantile, options.confidence);
    std::printf("  %-10s %8s %10s %12s\n", "queue", "jobs", "correct",
                "med ratio");
    auto sweep = sim::replayStream(trace, "bmbp", options).value();
    for (const auto &qr : sweep.queues) {
        const sim::ReplayResult &r = qr.result;
        if (r.totalJobs < 120)
            continue;
        const bool met =
            sim::meetsQuantile(r.correctFraction, options.quantile);
        std::printf("  %-10s %8zu %9.3f%s %12.2e\n",
                    (qr.queue.empty() ? "(none)" : qr.queue).c_str(),
                    r.totalJobs, r.correctFraction, met ? " " : "*",
                    r.medianRatio);
    }

    std::printf("\nPoint this at any Parallel Workloads Archive .swf "
                "log to evaluate BMBP on a\nreal machine's history.\n");
    return 0;
}
