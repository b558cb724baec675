/**
 * @file
 * Implementation of the shared bench plumbing.
 */

#include "bench_common.hh"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <iostream>
#include <map>
#include <mutex>
#include <utility>

#include "obs/domain_metrics.hh"
#include "sim/replay/stream_replay.hh"
#include "util/table_printer.hh"

namespace qdel {
namespace bench {

namespace {

// Written once in parseOptions, read by the atexit handler. The bench
// binaries have a dozen exit paths between them; a process-exit hook is
// the one place that covers them all without per-binary plumbing.
ObsFlags g_obs_flags;

void
writeObsAtExit()
{
    writeObsOutputs(g_obs_flags);
}

// Aggregate progress across every concurrent replay: the per-run
// callback fires often, so throttle to one line per second and report
// the process-wide job counter (the sharded obs counter already sums
// across workers — no extra bookkeeping here).
void
benchProgress(const sim::ReplayProgress &)
{
    static std::atomic<int64_t> last_print_nanos{0};
    const int64_t now = obs::nowNanos();
    int64_t last = last_print_nanos.load(std::memory_order_relaxed);
    if (now - last < 1'000'000'000)
        return;
    if (!last_print_nanos.compare_exchange_strong(
            last, now, std::memory_order_relaxed))
        return; // another worker just printed
    const uint64_t jobs = obs::replayMetrics().jobsProcessed.value();
    const double seconds = static_cast<double>(now) * 1e-9;
    const double rate =
        seconds > 0.0 ? static_cast<double>(jobs) / seconds : 0.0;
    // Not inform(): the user asked for these lines with --stats-every,
    // so they print regardless of --verbose. One fwrite per line keeps
    // concurrent workers from interleaving mid-line.
    char line[96];
    const int n = std::snprintf(
        line, sizeof(line), "progress: %llu jobs replayed | %.0f jobs/s\n",
        static_cast<unsigned long long>(jobs), rate);
    if (n > 0)
        std::fwrite(line, 1, static_cast<size_t>(n), stderr);
}

} // namespace

BenchOptions
parseOptions(int argc, char **argv)
{
    CommandLine cli(argc, argv, {"trace-cache"});
    if (reportCliErrors(cli))
        std::exit(1);
    BenchOptions options;
    options.seed = static_cast<uint64_t>(cliValue(cli.getInt("seed", 1)));
    options.quantile = cliValue(cli.getDouble("quantile", 0.95));
    options.confidence = cliValue(cli.getDouble("confidence", 0.95));
    options.epochSeconds = cliValue(cli.getDouble("epoch", 300.0));
    options.trainFraction = cliValue(cli.getDouble("train", 0.10));
    options.csvPath = cli.getString("csv", "");
    options.threads = cliValue(cli.getInt("threads", 0));
    options.traceCache = cli.has("trace-cache");
    options.traceCacheDir = cli.getString("trace-cache", "");
    options.tracePaths = cli.positional();
    if (!parseObsFlags(cli, &options.obs))
        std::exit(1);
    if (options.obs.any()) {
        static std::once_flag once;
        std::call_once(once, [&options] {
            g_obs_flags = options.obs;
            std::atexit(writeObsAtExit);
        });
    }

    // Fail fast with context rather than letting a bad combination
    // panic deep inside the evaluation engine.
    core::PredictorOptions predictor_options;
    predictor_options.quantile = options.quantile;
    predictor_options.confidence = options.confidence;
    if (auto valid = predictor_options.validate(); !valid.ok()) {
        std::fprintf(stderr, "error: %s\n", valid.error().str().c_str());
        std::exit(1);
    }
    sim::ReplayConfig replay;
    replay.epochSeconds = options.epochSeconds;
    replay.trainFraction = options.trainFraction;
    if (auto valid = replay.validate(); !valid.ok()) {
        std::fprintf(stderr, "error: %s\n", valid.error().str().c_str());
        std::exit(1);
    }
    return options;
}

trace::Trace
loadBenchTrace(const std::string &path, const BenchOptions &options)
{
    trace::TraceLoadOptions load_options;
    load_options.threads = options.threads;
    load_options.cache = options.traceCache;
    load_options.cacheDir = options.traceCacheDir;
    auto loaded = trace::loadTrace(path, load_options);
    if (!loaded.ok()) {
        std::fprintf(stderr, "error: %s\n",
                     loaded.error().str().c_str());
        std::exit(1);
    }
    return std::move(loaded).value();
}

const core::RareEventTable &
sharedTable(double quantile)
{
    // Guarded so evaluation workers may call this directly; std::map
    // never invalidates references, so the returned table stays put.
    static std::mutex mutex;
    static std::map<long long, core::RareEventTable> tables;
    std::lock_guard<std::mutex> lock(mutex);
    const long long key = static_cast<long long>(quantile * 1e9);
    auto it = tables.find(key);
    if (it == tables.end())
        it = tables.emplace(key, core::RareEventTable(quantile, 0.05)).first;
    return it->second;
}

core::PredictorOptions
predictorOptions(const BenchOptions &options)
{
    core::PredictorOptions predictor_options;
    predictor_options.quantile = options.quantile;
    predictor_options.confidence = options.confidence;
    predictor_options.rareEventTable = &sharedTable(options.quantile);
    return predictor_options;
}

sim::ReplayConfig
replayConfig(const BenchOptions &options)
{
    sim::ReplayConfig config;
    config.epochSeconds = options.epochSeconds;
    config.trainFraction = options.trainFraction;
    if (options.obs.statsEvery > 0) {
        config.progressEveryJobs = options.obs.statsEvery;
        config.onProgress = benchProgress;
    }
    return config;
}

std::vector<std::string>
formatMethodCells(const std::vector<sim::EvaluationCell> &cells,
                  double quantile)
{
    // Find the most accurate correct method: highest median
    // actual/predicted ratio (tightest bound that still meets the
    // advertised quantile).
    int best = -1;
    double best_ratio = -1.0;
    for (size_t i = 0; i < cells.size(); ++i) {
        if (!cells[i].correct(quantile))
            continue;
        if (cells[i].medianRatio > best_ratio) {
            best_ratio = cells[i].medianRatio;
            best = static_cast<int>(i);
        }
    }

    std::vector<std::string> formatted;
    formatted.reserve(cells.size());
    for (size_t i = 0; i < cells.size(); ++i) {
        std::string cell = TablePrinter::cell(cells[i].correctFraction, 2);
        if (!cells[i].correct(quantile))
            cell = TablePrinter::flagged(cell);
        else if (static_cast<int>(i) == best)
            cell = TablePrinter::bold(cell);
        formatted.push_back(std::move(cell));
    }
    return formatted;
}

std::vector<std::string>
formatRatioCells(const std::vector<sim::EvaluationCell> &cells,
                 double quantile)
{
    std::vector<std::string> formatted;
    formatted.reserve(cells.size());
    for (const auto &cell : cells) {
        std::string text = TablePrinter::cellSci(cell.medianRatio, 2);
        if (!cell.correct(quantile))
            text = TablePrinter::flagged(text);
        formatted.push_back(std::move(text));
    }
    return formatted;
}

std::vector<std::shared_ptr<const trace::Trace>>
synthesizeSuite(ThreadPool &pool,
                const std::vector<const workload::QueueProfile *> &profiles,
                uint64_t seed)
{
    std::vector<std::future<std::shared_ptr<const trace::Trace>>> futures;
    futures.reserve(profiles.size());
    for (const auto *profile : profiles) {
        futures.push_back(pool.submit([profile, seed] {
            return std::make_shared<const trace::Trace>(
                workload::synthesizeTrace(*profile, seed));
        }));
    }
    std::vector<std::shared_ptr<const trace::Trace>> traces;
    traces.reserve(profiles.size());
    for (auto &future : futures)
        traces.push_back(future.get());
    return traces;
}

std::vector<std::vector<sim::EvaluationCell>>
evaluateMethodGrid(ThreadPool &pool,
                   const std::vector<std::shared_ptr<const trace::Trace>>
                       &traces,
                   const std::vector<std::string> &methods,
                   const core::PredictorOptions &predictor_options,
                   const sim::ReplayConfig &replay)
{
    std::vector<sim::EvaluationJob> jobs;
    jobs.reserve(traces.size() * methods.size());
    for (const auto &trace : traces) {
        for (const auto &method : methods)
            jobs.push_back({trace, method, predictor_options, replay});
    }
    auto flat = sim::evaluateSuite(pool, jobs);

    std::vector<std::vector<sim::EvaluationCell>> grid(traces.size());
    for (size_t i = 0; i < traces.size(); ++i) {
        grid[i].assign(flat.begin() +
                           static_cast<ptrdiff_t>(i * methods.size()),
                       flat.begin() +
                           static_cast<ptrdiff_t>((i + 1) * methods.size()));
    }
    return grid;
}

int
runProcTable(const std::string &method, const std::string &title,
             int argc, char **argv)
{
    auto options = parseOptions(argc, argv);
    auto predictor_options = predictorOptions(options);
    auto replay = replayConfig(options);
    ThreadPool pool(ThreadPool::resolveThreadCount(options.threads));

    TablePrinter table(title);
    table.setHeader({"Machine", "Queue", "1-4", "5-16", "17-64", "65+"});

    // Phase 1: synthesize every queue's trace concurrently. Phase 2:
    // one keyed sweep per trace, by (queue, processor range), each a
    // one-thread task on the pool, so no task waits on another.
    const auto profiles = workload::procTableProfiles();
    const auto traces = synthesizeSuite(pool, profiles, options.seed);
    sim::StreamReplayConfig sweep;
    sweep.replay = replay;
    sweep.byProcs = true;

    std::vector<std::future<sim::StreamReplayResult>> rows;
    rows.reserve(traces.size());
    for (const auto &trace : traces) {
        rows.push_back(pool.submit([trace, &method, &predictor_options,
                                    &sweep] {
            return sim::replayStream(*trace, method, predictor_options,
                                     sweep)
                .value();
        }));
    }

    size_t evaluated_cells = 0;
    size_t correct_cells = 0;
    for (size_t p = 0; p < profiles.size(); ++p) {
        const auto *profile = profiles[p];
        std::vector<std::string> row = {profile->site, profile->queue};
        bool any_cell = false;
        const sim::StreamReplayResult cells = rows[p].get();
        for (const sim::ReplayResult *r :
             sim::procRow(cells, profile->queue, 1000)) {
            if (!r) {
                row.push_back("-");
                continue;
            }
            any_cell = true;
            ++evaluated_cells;
            std::string text = TablePrinter::cell(r->correctFraction, 2);
            if (!sim::meetsQuantile(r->correctFraction, options.quantile))
                text = TablePrinter::flagged(text);
            else
                ++correct_cells;
            row.push_back(std::move(text));
        }
        // The paper omits queues with no populated cell entirely.
        if (any_cell)
            table.addRow(std::move(row));
    }

    table.print(std::cout);
    std::cout << "\nCorrect cells: " << correct_cells << "/"
              << evaluated_cells << " (method: " << method << ").\n";
    return 0;
}

} // namespace bench
} // namespace qdel
