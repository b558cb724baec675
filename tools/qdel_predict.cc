/**
 * @file
 * qdel-predict: the deployable front end. Evaluates (or just runs)
 * wait-time bound prediction over a scheduler log.
 *
 * Usage:
 *   qdel_predict <trace-file> [options]
 *
 * The trace format is chosen by extension: ".swf" parses Standard
 * Workload Format (Parallel Workloads Archive), ".qtc"/".qtcs"
 * streams columnar data out-of-core (bounded resident memory, any
 * trace size), anything else the native "<submit> <wait> [procs
 * [queue]]" format. Either way the table is one sim::replayStream()
 * sweep, keyed by queue or, under --by-procs, by (queue, processor
 * range).
 *
 * Options:
 *   --method=bmbp|lognormal|lognormal-trim|loguniform|percentile
 *   --quantile=0.95 --confidence=0.95
 *   --epoch=300 --train=0.10
 *   --queue=NAME       evaluate one queue (default: every queue)
 *   --by-procs         additionally subdivide by the paper's ranges
 *   --min-jobs=1000    print "-" for subdivisions smaller than this
 *   --live             print the final bound a user would see now
 *   --strict           fail on the first malformed trace line (default)
 *   --lenient          skip malformed lines, report an ingest summary
 *   --threads=N        parse and replay worker threads (default 1;
 *                      0 = auto); the replay fans out queues, or
 *                      (queue, range) cells under --by-procs
 *   --trace-cache[=D]  maintain a binary ".qtc" cache of the parsed
 *                      trace (in D, default: next to the source) and
 *                      load from it when fresh
 *   --verbose          verbose logging (includes the ingest report)
 *   --checkpoint-dir=D persist predictor + replay state into D so a
 *                      killed run can be resumed (single queue only)
 *   --checkpoint-every=5000  jobs between snapshots
 *   --resume           recover from the checkpoint directory's newest
 *                      usable state instead of failing on existing state
 *   --metrics-out=F    write a metrics dump on exit (Prometheus text
 *                      exposition, or JSON when F ends in ".json")
 *   --events-out=F     write the event trace on exit (Chrome
 *                      trace_event JSON; JSON Lines when F ends in
 *                      ".jsonl")
 *   --stats-every=N    print a progress line with rate + ETA every N
 *                      replayed jobs (see README for the format)
 *   --batch-size=N     rows per streamed batch (columnar input only;
 *                      default 65536)
 *
 * Exit status: 0 on success, 1 on input errors.
 */

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <memory>
#include <optional>

#include "core/predictor_factory.hh"
#include "core/rare_event.hh"
#include "obs/progress.hh"
#include "sim/replay/evaluation.hh"
#include "sim/replay/stream_replay.hh"
#include "trace/qtc_stream.hh"
#include "util/obs_cli.hh"
#include "util/resource_usage.hh"
#include "trace/trace_loader.hh"
#include "util/cli.hh"
#include "util/logging.hh"
#include "util/string_utils.hh"
#include "util/table_printer.hh"

namespace {

using namespace qdel;

void
usage(std::ostream &out)
{
    out << "usage: qdel_predict <trace-file> [--method=bmbp] "
           "[--quantile=0.95] [--confidence=0.95]\n"
           "                    [--epoch=300] [--train=0.10] "
           "[--queue=NAME] [--by-procs] [--live]\n"
           "                    [--strict|--lenient] [--threads=N] "
           "[--trace-cache[=DIR]] [--verbose]\n"
           "                    [--checkpoint-dir=DIR "
           "[--checkpoint-every=5000] [--resume]]\n"
           "\n"
           "  --strict    fail on the first malformed trace line "
           "(default)\n"
           "  --lenient   skip malformed lines and print a per-load "
           "ingest report\n"
           "              (lines parsed / comment / malformed / "
           "filtered)\n"
           "  --trace-cache[=DIR]  write a binary \".qtc\" cache of the "
           "parsed trace\n"
           "              on first load and reuse it while the source "
           "is unchanged\n"
           "  --checkpoint-dir=DIR  persist predictor + replay state "
           "into DIR\n"
           "              (crash-safe; single queue only)\n"
           "  --resume    recover from DIR's newest usable state "
           "instead of\n"
           "              refusing to run on a non-empty directory\n"
           "  --metrics-out=FILE  dump metrics on exit (Prometheus "
           "text, or JSON\n"
           "              when FILE ends in \".json\")\n"
           "  --events-out=FILE   dump the event trace on exit (Chrome "
           "trace_event\n"
           "              JSON for chrome://tracing / Perfetto; JSON "
           "Lines when FILE\n"
           "              ends in \".jsonl\")\n"
           "  --stats-every=N     print a progress line (rate, hit "
           "rate, ETA)\n"
           "              every N replayed jobs\n"
           "  --batch-size=N      rows per streamed batch for "
           "\".qtc\"/\".qtcs\" input\n"
           "              (out-of-core columnar replay; default "
           "65536)\n";
}

/** Stateful progress printer for --stats-every: one meter over the
 *  run's one replay (the sweep or the checkpointed run). */
class ProgressPrinter
{
  public:
    void
    operator()(const sim::ReplayProgress &p)
    {
        if (!meter_)
            meter_ = std::make_shared<obs::ProgressMeter>(p.totalJobs);
        meter_->update(p.jobsProcessed);
        const double hit_rate =
            p.evaluated > 0 ? static_cast<double>(p.correct) /
                                  static_cast<double>(p.evaluated)
                            : 0.0;
        char buf[224];
        std::snprintf(
            buf, sizeof(buf),
            "progress: %llu/%llu jobs (%.1f%%) | %.0f jobs/s | "
            "hit rate %.3f | eta %s",
            static_cast<unsigned long long>(meter_->done()),
            static_cast<unsigned long long>(meter_->total()),
            meter_->fraction() * 100.0, meter_->ratePerSecond(),
            hit_rate,
            obs::ProgressMeter::formatEta(meter_->etaSeconds()).c_str());
        std::cerr << buf << "\n";
    }

  private:
    // shared_ptr, not unique_ptr: the printer is stored in a
    // std::function, which requires a copyable callable.
    std::shared_ptr<obs::ProgressMeter> meter_;
};

/** True for ".qtc" / ".qtcs" paths (case-insensitive). */
bool
isColumnarPath(const std::string &path)
{
    const std::string lower = toLower(path);
    for (const char *suffix : {".qtc", ".qtcs"}) {
        const size_t n = std::string(suffix).size();
        if (lower.size() >= n &&
            lower.compare(lower.size() - n, n, suffix) == 0)
            return true;
    }
    return false;
}

/** The per-queue table header: the paper's cells, then the
 *  calibration window's coverage and failing flag. */
const std::vector<std::string> kQueueHeader = {
    "queue", "jobs", "evaluated", "correct", "median actual/pred",
    "trims", "window", "failing"};

/** How the tables name a queue. */
std::string
queueLabel(const std::string &queue)
{
    return queue.empty() ? "(none)" : queue;
}

/** One row of that table: the correct fraction is flagged when it
 *  misses @p quantile, and an empty window's coverage prints "-". */
std::vector<std::string>
queueRow(const std::string &queue, const sim::ReplayResult &r,
         size_t trims, double quantile)
{
    std::string correct = TablePrinter::cell(r.correctFraction, 3);
    if (!sim::meetsQuantile(r.correctFraction, quantile))
        correct = TablePrinter::flagged(correct);
    return {queueLabel(queue),
            TablePrinter::cell(static_cast<long long>(r.totalJobs)),
            TablePrinter::cell(static_cast<long long>(r.evaluatedJobs)),
            std::move(correct),
            TablePrinter::cellSci(r.medianRatio, 2),
            TablePrinter::cell(static_cast<long long>(trims)),
            r.windowCoverage < 0.0
                ? "-"
                : TablePrinter::cell(r.windowCoverage, 3),
            r.failing ? "yes" : "no"};
}

/** Print the sweep's queues of two or more jobs as one table. */
void
printQueueTable(const std::string &title,
                const sim::StreamReplayResult &sweep, double quantile)
{
    TablePrinter results(title);
    results.setHeader(kQueueHeader);
    for (const auto &qr : sweep.queues) {
        if (qr.result.totalJobs >= 2)
            results.addRow(
                queueRow(qr.queue, qr.result, qr.trims, quantile));
    }
    results.print(std::cout);
}


/** Print the ingest accounting plus the retained per-line errors. */
void
printIngestReport(const trace::IngestReport &report)
{
    std::cerr << "ingest: " << report.summary() << "\n";
    for (const auto &error : report.errors)
        std::cerr << "ingest:   " << error.str() << "\n";
    if (report.malformedLines > report.errors.size()) {
        std::cerr << "ingest:   ... and "
                  << report.malformedLines - report.errors.size()
                  << " more malformed lines\n";
    }
}

} // namespace

int
main(int argc, char **argv)
{
    CommandLine cli(argc, argv,
                    {"by-procs", "live", "strict", "lenient", "verbose",
                     "resume", "trace-cache", "help"});
    if (cliValue(cli.getBool("help", false))) {
        usage(std::cout);
        return 0;
    }
    if (reportCliErrors(cli))
        return 1;
    if (cli.positional().empty()) {
        usage(std::cerr);
        return 1;
    }
    setVerboseLogging(cliValue(cli.getBool("verbose", false)));

    const bool lenient = cliValue(cli.getBool("lenient", false));
    if (lenient && cliValue(cli.getBool("strict", false))) {
        std::cerr << "error: --strict and --lenient are mutually "
                     "exclusive\n";
        return 1;
    }
    const trace::ParseMode mode = lenient ? trace::ParseMode::Lenient
                                          : trace::ParseMode::Strict;

    const std::string path = cli.positional().front();
    const std::string method = cli.getString("method", "bmbp");

    // Validate every user-supplied knob up front, before the (possibly
    // long) trace load.
    core::PredictorOptions options;
    options.quantile = cliValue(cli.getDouble("quantile", 0.95));
    options.confidence = cliValue(cli.getDouble("confidence", 0.95));
    if (auto probe = core::tryMakePredictor(method, options); !probe.ok()) {
        std::cerr << "error: " << probe.error().str() << "\n";
        return 1;
    }

    ObsFlags obs_flags;
    if (!parseObsFlags(cli, &obs_flags))
        return 1;

    sim::ReplayConfig replay;
    replay.epochSeconds = cliValue(cli.getDouble("epoch", 300.0));
    replay.trainFraction = cliValue(cli.getDouble("train", 0.10));
    if (obs_flags.statsEvery > 0) {
        replay.progressEveryJobs = obs_flags.statsEvery;
        replay.onProgress = ProgressPrinter();
    }
    if (auto valid = replay.validate(); !valid.ok()) {
        std::cerr << "error: " << valid.error().str() << "\n";
        return 1;
    }

    const long long min_jobs_raw = cliValue(cli.getInt("min-jobs", 1000));
    if (min_jobs_raw < 0) {
        std::cerr << "error: --min-jobs: must be >= 0, got "
                  << min_jobs_raw << "\n";
        return 1;
    }
    const auto min_jobs = static_cast<size_t>(min_jobs_raw);

    const std::string checkpoint_dir = cli.getString("checkpoint-dir", "");
    const long long checkpoint_every_raw =
        cliValue(cli.getInt("checkpoint-every", 5000));
    const bool resume = cliValue(cli.getBool("resume", false));
    if (checkpoint_dir.empty() &&
        (resume || cli.has("checkpoint-every"))) {
        std::cerr << "error: --resume/--checkpoint-every require "
                     "--checkpoint-dir\n";
        return 1;
    }
    // 0 would leave only the opening and closing snapshots, so a crash
    // would lose the whole run — never what a user asking for
    // checkpoints wants.
    if (checkpoint_every_raw <= 0) {
        std::cerr << "error: --checkpoint-every: must be >= 1, got "
                  << checkpoint_every_raw << "\n";
        return 1;
    }
    const bool by_procs = cliValue(cli.getBool("by-procs", false));
    if (!checkpoint_dir.empty() && by_procs) {
        std::cerr << "error: --checkpoint-dir cannot be combined with "
                     "--by-procs (one run, one state)\n";
        return 1;
    }

    const long long threads = cliValue(cli.getInt("threads", 1));
    if (threads < 0) {
        std::cerr << "error: --threads: must be >= 0, got " << threads
                  << "\n";
        return 1;
    }

    // Validated up front (not only on the columnar path below) so a
    // bad value is an error on every input type instead of being
    // silently ignored for row-oriented traces.
    const long long batch_size =
        cliValue(cli.getInt("batch-size", 1 << 16));
    if (batch_size <= 0) {
        std::cerr << "error: --batch-size must be positive\n";
        return 1;
    }
    const bool columnar = isColumnarPath(path);
    if (cli.has("batch-size") && !columnar) {
        std::cerr << "error: --batch-size only applies to columnar "
                     "(.qtc/.qtcs) input\n";
        return 1;
    }

    std::optional<std::string> only_queue;
    if (cli.has("queue"))
        only_queue = cli.getString("queue", "");
    sim::StreamReplayConfig sweep;
    sweep.replay = replay;
    sweep.threads = threads;
    sweep.byProcs = by_procs;
    sweep.queue = only_queue;
    const std::string title = "qdel-predict: " + method + " on " + path;
    const std::string no_jobs =
        "error: trace '" + path + "' contains no jobs\n";

    // Columnar input (a ".qtcs" shard-set manifest or a single ".qtc"
    // image) streams batches through the sweep instead of
    // materializing a Trace.
    if (columnar) {
        for (const char *flag : {"by-procs", "live", "checkpoint-dir",
                                 "trace-cache", "lenient"}) {
            if (cli.has(flag)) {
                std::cerr << "error: --" << flag
                          << " is not supported with columnar "
                             "(.qtc/.qtcs) input\n";
                return 1;
            }
        }
        trace::StreamReadOptions read_options;
        read_options.batchSize = static_cast<size_t>(batch_size);
        auto reader = trace::StreamingTraceReader::open(path, read_options);
        if (!reader.ok()) {
            std::cerr << "error: " << reader.error().str() << "\n";
            return 1;
        }
        if (reader.value().jobCount() == 0) {
            std::cerr << no_jobs;
            return 1;
        }
        inform("streaming ", reader.value().jobCount(), " jobs in ",
               reader.value().shardCount(), " shards from ", path);
        core::RareEventTable table(options.quantile, 0.05);
        options.rareEventTable = &table;
        auto outcome =
            sim::replayStream(reader.value(), method, options, sweep);
        if (!outcome.ok()) {
            std::cerr << "error: " << outcome.error().str() << "\n";
            return 1;
        }
        const sim::StreamReplayResult &stream = outcome.value();
        printQueueTable(title + " (streamed)", stream, options.quantile);
        std::cerr << "stream: " << stream.totalJobs << " jobs, "
                  << stream.batches << " batches, " << stream.shards
                  << " shards, peak rss "
                  << (stream.peakResidentBytes >> 20)
                  << " MiB sampled / "
                  << (util::peakResidentBytes() >> 20) << " MiB process\n";
        writeObsOutputs(obs_flags);
        return 0;
    }

    trace::TraceLoadOptions load_options;
    load_options.mode = mode;
    load_options.threads = threads;
    load_options.cache = cli.has("trace-cache");
    load_options.cacheDir = cli.getString("trace-cache", "");

    trace::IngestReport report;
    Expected<trace::Trace> loaded =
        trace::loadTrace(path, load_options, &report);
    if (!loaded.ok()) {
        std::cerr << "error: " << loaded.error().str() << "\n";
        return 1;
    }
    trace::Trace trace = std::move(loaded).value();
    if (report.malformedLines > 0 || detail::verbose())
        printIngestReport(report);
    inform("loaded ", trace.size(), " jobs from ", path);
    if (trace.empty()) {
        std::cerr << no_jobs;
        return 1;
    }

    // Built after the load: its worker threads' arenas would otherwise
    // stay resident through the parse's peak.
    core::RareEventTable table(options.quantile, 0.05);
    options.rareEventTable = &table;

    const std::vector<std::string> queues =
        only_queue ? std::vector<std::string>{*only_queue}
                   : trace.queueNames();

    if (!checkpoint_dir.empty()) {
        // A checkpoint directory holds the state of exactly one
        // (trace, queue, predictor) run, so the multi-queue sweep is
        // off the table here. Its fingerprint hashes the queue's own
        // rows, so it replays a copy of them.
        if (queues.size() != 1) {
            std::cerr << "error: --checkpoint-dir requires a single "
                         "queue; this trace has "
                      << queues.size()
                      << " queues, select one with --queue=NAME\n";
            return 1;
        }
        if (only_queue)
            trace = trace.filterByQueue(*only_queue);
        auto predictor = core::makePredictor(method, options);
        sim::ReplaySimulator simulator(replay);
        sim::ReplayCheckpointOptions copts;
        copts.dir = checkpoint_dir;
        copts.intervalJobs = static_cast<size_t>(checkpoint_every_raw);
        copts.resume = resume;
        auto outcome = simulator.run(trace, *predictor, {}, copts);
        if (!outcome.ok()) {
            std::cerr << "error: " << outcome.error().str() << "\n";
            return 1;
        }
        const sim::ReplayResult &r = outcome.value();
        for (const auto &note : r.recoveryNotes)
            std::cerr << "recovery: " << note << "\n";
        if (r.resumedFromJob > 0) {
            std::cerr << "recovery: resumed at job " << r.resumedFromJob
                      << " of " << r.totalJobs << "\n";
        }
        TablePrinter checkpointed(title + " (checkpointed)");
        checkpointed.setHeader(kQueueHeader);
        checkpointed.addRow(queueRow(queues[0], r,
                                     sim::predictorTrimCount(*predictor),
                                     options.quantile));
        checkpointed.print(std::cout);
        writeObsOutputs(obs_flags);
        return 0;
    }

    auto outcome = sim::replayStream(trace, method, options, sweep);
    if (!outcome.ok()) {
        std::cerr << "error: " << outcome.error().str() << "\n";
        return 1;
    }
    if (by_procs) {
        TablePrinter results(title);
        results.setHeader({"queue", "1-4", "5-16", "17-64", "65+"});
        for (const auto &queue : queues) {
            std::vector<std::string> row = {queueLabel(queue)};
            for (const sim::ReplayResult *r :
                 sim::procRow(outcome.value(), queue, min_jobs)) {
                if (!r) {
                    row.push_back("-");
                    continue;
                }
                std::string text =
                    TablePrinter::cell(r->correctFraction, 2);
                row.push_back(
                    sim::meetsQuantile(r->correctFraction, options.quantile)
                        ? text
                        : TablePrinter::flagged(text));
            }
            results.addRow(std::move(row));
        }
        results.print(std::cout);
    } else {
        printQueueTable(title, outcome.value(), options.quantile);
    }

    if (cliValue(cli.getBool("live", false))) {
        // The bound a user submitting *after the log ends* would see:
        // one pass feeds each queue's full history to its predictor,
        // then each refits once.
        std::cout << "\nlive bounds (full history):\n";
        const trace::TraceColumns &jobs = trace.columns();
        const std::vector<std::string> &names = trace.queueTable();
        std::vector<std::unique_ptr<core::Predictor>> live;
        for (size_t id = 0; id < names.size(); ++id)
            live.push_back(core::makePredictor(method, options));
        for (size_t i = 0; i < trace.size(); ++i)
            live[jobs.queueId[i]]->observe(jobs.wait[i]);
        for (const auto &queue : queues) {
            std::cout << "  " << queueLabel(queue) << ": ";
            const size_t id = static_cast<size_t>(
                std::find(names.begin(), names.end(), queue) -
                names.begin());
            core::QuantileEstimate bound;
            if (id < names.size()) {
                live[id]->refit();
                bound = live[id]->upperBound();
            }
            if (bound.finite()) {
                std::cout << formatDuration(bound.value) << " ("
                          << TablePrinter::cell(bound.value, 0)
                          << " s)\n";
            } else {
                std::cout << "insufficient history\n";
            }
        }
    }
    writeObsOutputs(obs_flags);
    return 0;
}
