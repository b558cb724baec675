/**
 * @file
 * qdel_bench: the end-to-end benchmark program for qdel.
 *
 *   qdel_bench --workload NAME --seed N --seconds S --trace 0|1
 *              --bin-dir DIR --work-dir DIR
 *
 * Workloads: offline-replay, serve-query, durable-ingest (see
 * workloads.hh and perfbench/README.md). An untraced run (--trace 0)
 * reports the end-to-end metrics; a traced run (--trace 1) records
 * spans, writes them to the work directory, and reports the per-layer
 * metrics plus the tracing overhead. The last line of standard output
 * is the JSON result; the exit code is 0 only when every output check
 * passed.
 */

#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>
#include <thread>

#include "obs/metrics.hh"
#include "report.hh"
#include "spans.hh"
#include "workloads.hh"

namespace {

using namespace perfbench;

/** Every per-layer metric a traced run reports, with its unit. A layer
 *  a workload does not exercise reports 0 (it did no work there). */
const std::pair<const char *, const char *> kLayerMetrics[] = {
    {"trace.parse_s", "s"},
    {"trace.records", "count"},
    {"replay.run_s", "s"},
    {"replay.self_s", "s"},
    {"replay.jobs_evaluated", "count"},
    {"core.observe_calls", "count"},
    {"core.observe_s", "s"},
    {"core.refit_calls", "count"},
    {"core.refit_s", "s"},
    {"core.bound_calls", "count"},
    {"core.bound_s", "s"},
    {"core.trims", "count"},
    {"wire.query_encode_ns", "ns"},
    {"wire.answer_decode_ns", "ns"},
    {"registry.query_ns", "ns"},
    {"registry.calibration_report_ms", "ms"},
    {"obs.metrics_bytes", "bytes"},
    {"registry.entries", "count"},
    {"registry.snapshot_publishes", "count"},
    {"server.request_us_p50", "us"},
    {"server.request_us_p99", "us"},
    {"server.query_us_p50", "us"},
    {"server.net_us_p50", "us"},
    {"server.batch_frames_mean", "frames"},
    {"server.wakeups_per_frame", "ratio"},
    {"server.shed", "count"},
    {"server.reaped", "count"},
    {"server.slow_requests", "count"},
    {"service.ingest_us_p50", "us"},
    {"service.ingest_us_p99", "us"},
    {"registry.apply_us_p50", "us"},
    {"persist.wal_appends", "count"},
    {"persist.fsyncs", "count"},
    {"persist.fsync_us_p50", "us"},
    {"persist.fsync_us_p99", "us"},
    {"persist.events_per_fsync", "ratio"},
    {"persist.fsync_share", "ratio"},
    {"persist.wal_bytes_per_event", "bytes"},
    {"persist.checkpoints", "count"},
    {"persist.checkpoint_ms_p50", "ms"},
    {"registry.calib_scored", "count"},
    {"registry.calib_hits", "count"},
    {"loadgen.late_us_p99", "us"},
    {"tracing.overhead_pct", "%"},
};

unsigned
usableCores()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0 && CPU_COUNT(&set) > 0)
        return static_cast<unsigned>(CPU_COUNT(&set));
    return std::max(1u, std::thread::hardware_concurrency());
}

int
usage(const std::string &why)
{
    std::cerr << "qdel_bench: " << why
              << "\nusage: qdel_bench --workload offline-replay|serve-query|"
                 "durable-ingest --seed N --seconds S --trace 0|1 "
                 "--bin-dir DIR --work-dir DIR\n";
    return 2;
}

/** Print the span table and write the spans; fill untouched layers. */
void
finishTraced(const RunOptions &options, Report &report)
{
    const std::string path =
        options.workDir + "/spans-" + options.workload + ".tsv";
    report.check(spans::write(path), "cannot write spans to " + path);
    report.line("spans: " + path + " (" +
                std::to_string(spans::dropped()) + " dropped)");
    report.line("span self time per layer:");
    for (const auto &[name, layer] : spans::layers()) {
        char buf[200];
        std::snprintf(buf, sizeof(buf),
                      "  %-24s count=%-10llu total=%.6fs self=%.6fs",
                      name.c_str(),
                      static_cast<unsigned long long>(layer.count),
                      layer.totalSeconds, layer.selfSeconds);
        report.line(buf);
    }
    for (const std::string &name : report.metricNames()) {
        bool known = false;
        for (const auto &[layer, unit] : kLayerMetrics)
            known = known || name == layer;
        report.check(known, "workload reported unlisted metric " + name);
    }
    for (const auto &[name, unit] : kLayerMetrics) {
        if (!report.hasMetric(name))
            report.metric(name, 0.0, unit);
    }
}

} // namespace

int
main(int argc, char **argv)
{
    RunOptions options;
    long long traceFlag = -1;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const std::string value = argv[i + 1];
        if (flag == "--workload")
            options.workload = value;
        else if (flag == "--seed")
            options.seed = std::strtoull(value.c_str(), nullptr, 10);
        else if (flag == "--seconds")
            options.seconds = std::atof(value.c_str());
        else if (flag == "--trace")
            traceFlag = std::atoll(value.c_str());
        else if (flag == "--bin-dir")
            options.binDir = value;
        else if (flag == "--work-dir")
            options.workDir = value;
        else
            return usage("unknown flag " + flag);
    }
    if (argc % 2 == 0)
        return usage("every flag takes a value");
    if (traceFlag != 0 && traceFlag != 1)
        return usage("--trace must be 0 or 1");
    if (!(options.seconds > 0) || options.binDir.empty() ||
        options.workDir.empty())
        return usage("--seconds, --bin-dir and --work-dir are required");
    options.trace = traceFlag == 1;
    options.cores = usableCores();

    // Library-side collection starts off, as in the offline tools;
    // in-process probes that stand in for the daemon turn it on, as
    // qdel_serve does. Workloads switch spans on for traced phases.
    qdel::obs::setEnabled(false);

    void (*run)(const RunOptions &, Report &) = nullptr;
    if (options.workload == "offline-replay")
        run = runOfflineReplay;
    else if (options.workload == "serve-query")
        run = runServeQuery;
    else if (options.workload == "durable-ingest")
        run = runDurableIngest;
    else
        return usage("unknown workload '" + options.workload + "'");

    Report report;
    try {
        run(options, report);
    } catch (const std::exception &error) {
        report.check(false, error.what());
    }
    spans::setEnabled(false);

    if (options.trace)
        finishTraced(options, report);
    report.print();
    return report.correct() ? 0 : 1;
}
