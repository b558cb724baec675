/**
 * @file
 * Shared plumbing for the paper-reproduction bench binaries: common
 * command-line options, the shared rare-event table, suite generation,
 * and paper-style cell formatting (asterisks for incorrect methods,
 * brackets for the most accurate correct method).
 */

#ifndef QDEL_BENCH_BENCH_COMMON_HH
#define QDEL_BENCH_BENCH_COMMON_HH

#include <string>
#include <vector>

#include "core/predictor_factory.hh"
#include "core/rare_event.hh"
#include "sim/replay/evaluation.hh"
#include "trace/trace_loader.hh"
#include "util/cli.hh"
#include "util/obs_cli.hh"
#include "workload/site_catalog.hh"
#include "workload/synthesizer.hh"

namespace qdel {
namespace bench {

/** Options shared by every reproduction binary. */
struct BenchOptions
{
    uint64_t seed = 1;          //!< Suite seed (see EXPERIMENTS.md).
    double quantile = 0.95;     //!< Quantile of interest.
    double confidence = 0.95;   //!< Confidence level.
    double epochSeconds = 300;  //!< Model refit period (paper: 5 min).
    double trainFraction = 0.1; //!< Warm-up fraction (paper: 10%).
    std::string csvPath;        //!< Optional machine-readable dump.

    /** --trace-cache[=DIR]: maintain the binary ".qtc" trace cache. */
    bool traceCache = false;
    /** Cache directory; empty = ".qtc" sidecar next to each source. */
    std::string traceCacheDir;
    /** Positional arguments: trace files to evaluate, when given. */
    std::vector<std::string> tracePaths;

    /**
     * Evaluation worker threads: --threads=N, else the QDEL_THREADS
     * environment variable, else hardware concurrency. Table output is
     * byte-identical for every value (results are collected in
     * submission order); 1 recovers the sequential behaviour.
     */
    long long threads = 0;

    /**
     * --metrics-out / --events-out / --stats-every: any of them turns
     * the observability subsystem on. The output files are written by
     * an atexit handler, so individual bench binaries need no exit-path
     * plumbing; --stats-every prints an aggregate progress line across
     * all concurrent replays (at most once a second).
     */
    ObsFlags obs;
};

/** Parse the shared options from the command line. */
BenchOptions parseOptions(int argc, char **argv);

/**
 * Load a trace file through the cache settings in @p options (strict
 * mode, zero-copy mmap parse). Errors print to stderr and exit — this
 * is bench front-end plumbing.
 */
trace::Trace loadBenchTrace(const std::string &path,
                            const BenchOptions &options);

/**
 * Process-wide rare-event table for the configured quantile.
 * Thread-safe: concurrent callers serialize on a mutex and see the
 * same (immutable, stably addressed) table instance.
 */
const core::RareEventTable &sharedTable(double quantile = 0.95);

/** Predictor options wired to the shared table. */
core::PredictorOptions predictorOptions(const BenchOptions &options);

/** Replay configuration from the shared options. */
sim::ReplayConfig replayConfig(const BenchOptions &options);

/**
 * Format the three method cells of a Table 3/5/6/7-style row:
 * fractions printed to two decimals, an asterisk on cells that miss
 * the advertised quantile (the paper's criterion after rounding), and
 * brackets on the most accurate correct method (the paper's boldface,
 * chosen by the median actual/predicted ratio — see EXPERIMENTS.md on
 * the paper's Table 4 caption ambiguity).
 */
std::vector<std::string>
formatMethodCells(const std::vector<sim::EvaluationCell> &cells,
                  double quantile);

/** Paper Table 4 style: scientific-notation ratios with asterisks. */
std::vector<std::string>
formatRatioCells(const std::vector<sim::EvaluationCell> &cells,
                 double quantile);

/**
 * Synthesize one trace per profile on @p pool (synthesis
 * is a pure function of profile and seed, so the result is
 * thread-count independent). Result i corresponds to profiles[i].
 */
std::vector<std::shared_ptr<const trace::Trace>>
synthesizeSuite(ThreadPool &pool,
                const std::vector<const workload::QueueProfile *> &profiles,
                uint64_t seed);

/**
 * Evaluate the (trace x method) grid concurrently; result[i][j] is
 * traces[i] under methods[j]. The workhorse of the Table 3/4-style
 * benches.
 */
std::vector<std::vector<sim::EvaluationCell>>
evaluateMethodGrid(ThreadPool &pool,
                   const std::vector<std::shared_ptr<const trace::Trace>>
                       &traces,
                   const std::vector<std::string> &methods,
                   const core::PredictorOptions &predictor_options,
                   const sim::ReplayConfig &replay);

/**
 * Shared driver for the Tables 5/6/7 reproductions: evaluate @p method
 * on every proc-table queue subdivided by the paper's four processor
 * ranges (cells under 1000 jobs print "-") and print the table under
 * @p title. Trace synthesis and the (queue x range) cells run on the
 * evaluation pool. Returns the process exit code.
 */
int runProcTable(const std::string &method, const std::string &title,
                 int argc, char **argv);

} // namespace bench
} // namespace qdel

#endif // QDEL_BENCH_BENCH_COMMON_HH
