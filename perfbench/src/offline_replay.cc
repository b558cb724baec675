/**
 * @file
 * offline-replay: the paper's Table 3 pipeline over the whole site
 * catalog. Set-up synthesizes all 39 catalog queues to SWF text; each
 * pass parses every trace with trace::loadTrace and replays it with
 * bmbp, lognormal and lognormal-trim through sim::ReplaySimulator::run,
 * on one worker thread per core. No socket, WAL or registry is
 * involved, so a serve-side change must not move these numbers.
 */

#include <malloc.h>
#include <sys/stat.h>

#include <algorithm>
#include <atomic>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "core/predictor_factory.hh"
#include "core/rare_event.hh"
#include "obs/calibration.hh"
#include "sim/replay/evaluation.hh"
#include "sim/replay/replay_simulator.hh"
#include "spans.hh"
#include "timed_predictor.hh"
#include "trace/swf_format.hh"
#include "trace/trace_loader.hh"
#include "workload/site_catalog.hh"
#include "workload/synthesizer.hh"
#include "workloads.hh"

namespace perfbench {

namespace {

using namespace qdel;

const char *const kMethods[] = {"bmbp", "lognormal", "lognormal-trim"};
constexpr size_t kMethodCount = 3;

struct QueueInput
{
    std::string label;  //!< "site/queue".
    std::string path;   //!< Synthesized SWF file.
    size_t jobs = 0;    //!< Jobs written.
};

/** Outcome of one (queue, method) replay. */
struct Cell
{
    size_t total = 0;
    size_t evaluated = 0;
    size_t correct = 0;
    size_t infinite = 0;
    double seconds = 0.0;
    std::string error;  //!< Non-empty when a check failed.

    bool
    sameCounts(const Cell &other) const
    {
        return total == other.total && evaluated == other.evaluated &&
               correct == other.correct && infinite == other.infinite;
    }
};

struct Pass
{
    double seconds = 0.0;       //!< Parse + replay wall time.
    double cpuSeconds = 0.0;    //!< Parse + replay CPU time.
    size_t jobsReplayed = 0;    //!< Sum over cells of replayed jobs.
    size_t records = 0;         //!< Records parsed.
    std::vector<Cell> cells;    //!< queue * kMethodCount + method.
    double peakRssMb = 0.0;     //!< VmHWM over the pass.
    PredictorTimes times;       //!< Timed passes only.
    size_t trims = 0;           //!< Timed passes only.
};

/** Run fn(i) for i in [0, n) on @p threads workers; with one thread,
 *  on the calling thread (and so in its malloc arena). */
void
parallelFor(size_t n, unsigned threads, const std::function<void(size_t)> &fn)
{
    if (threads <= 1) {
        for (size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }
    std::atomic<size_t> next{0};
    std::vector<std::thread> workers;
    for (unsigned t = 0; t < threads; ++t) {
        workers.emplace_back([&] {
            for (size_t i = next++; i < n; i = next++)
                fn(i);
        });
    }
    for (auto &worker : workers)
        worker.join();
}

/** Synthesize every catalog queue to SWF under @p dir, largest first. */
std::vector<QueueInput>
synthesizeCatalog(const RunOptions &options, const std::string &dir)
{
    ::mkdir(dir.c_str(), 0755);
    const auto &catalog = workload::siteCatalog();
    std::vector<QueueInput> inputs(catalog.size());
    std::vector<std::string> errors(catalog.size());
    parallelFor(catalog.size(), workerThreads(options), [&](size_t i) {
        const auto &profile = catalog[i];
        const trace::Trace t = workload::synthesizeTrace(profile, options.seed);
        QueueInput &input = inputs[i];
        input.label = std::string(profile.site) + "/" + profile.queue;
        input.path = dir + "/" + profile.site + "_" + profile.queue + ".swf";
        input.jobs = t.size();
        if (auto saved = trace::saveSwfTrace(t, input.path); !saved.ok())
            errors[i] = saved.error().str();
    });
    for (const auto &error : errors) {
        if (!error.empty())
            throw std::runtime_error("synthesize: " + error);
    }
    std::stable_sort(inputs.begin(), inputs.end(),
                     [](const QueueInput &a, const QueueInput &b) {
                         return a.jobs > b.jobs;
                     });
    return inputs;
}

/** Parse every queue, then replay every (queue, method) cell, on
 *  @p threads workers. */
Pass
runPass(const std::vector<QueueInput> &inputs, unsigned threads,
        const core::RareEventTable &rareTable, bool timed)
{
    Pass pass;
    pass.cells.resize(inputs.size() * kMethodCount);
    std::vector<trace::Trace> traces(inputs.size());
    std::vector<std::string> parseErrors(inputs.size());
    std::vector<PredictorTimes> times(pass.cells.size());
    std::vector<size_t> trims(pass.cells.size(), 0);

    // Hand the previous pass's freed heap back first, so each pass's
    // peak is its own working set rather than what malloc kept.
    ::malloc_trim(0);
    resetPeakRss();
    const double cpuStart = selfCpuSeconds();
    const int64_t start = nowNs();
    parallelFor(inputs.size(), threads, [&](size_t q) {
        spans::Scope span("trace.parse");
        auto loaded = trace::loadTrace(inputs[q].path);
        if (!loaded.ok())
            parseErrors[q] = loaded.error().str();
        else
            traces[q] = std::move(loaded).value();
    });

    core::PredictorOptions predictorOptions;
    predictorOptions.rareEventTable = &rareTable;
    const sim::ReplaySimulator simulator;
    parallelFor(pass.cells.size(), threads, [&](size_t c) {
        const size_t q = c / kMethodCount;
        Cell &cell = pass.cells[c];
        if (!parseErrors[q].empty()) {
            cell.error = inputs[q].label + ": parse: " + parseErrors[q];
            return;
        }
        const trace::Trace &t = traces[q];
        std::unique_ptr<core::Predictor> predictor =
            core::makePredictor(kMethods[c % kMethodCount], predictorOptions);
        TimedPredictor *timer = nullptr;
        if (timed) {
            auto wrapped =
                std::make_unique<TimedPredictor>(std::move(predictor));
            timer = wrapped.get();
            predictor = std::move(wrapped);
        }
        const int64_t cellStart = nowNs();
        auto result = [&] {
            spans::Scope span("replay.run");
            return simulator.run(t, *predictor);
        }();
        cell.seconds = secondsSince(cellStart);
        const std::string what =
            inputs[q].label + " " + kMethods[c % kMethodCount];
        if (!result.ok()) {
            cell.error = what + ": " + result.error().str();
            return;
        }
        const sim::ReplayResult &r = result.value();
        cell.total = r.totalJobs;
        cell.evaluated = r.evaluatedJobs;
        cell.correct = r.correct;
        cell.infinite = r.infinitePredictions;
        if (t.size() != inputs[q].jobs || r.totalJobs != t.size() ||
            r.evaluatedJobs != r.totalJobs - r.trainingJobs) {
            cell.error = what + ": parsed " + std::to_string(t.size()) +
                         " of " + std::to_string(inputs[q].jobs) +
                         " jobs, evaluated " + std::to_string(r.evaluatedJobs) +
                         " of " + std::to_string(r.totalJobs) + " minus " +
                         std::to_string(r.trainingJobs) + " training";
        }
        if (timer != nullptr) {
            times[c] = timer->times();
            trims[c] = timer->trimCount();
        }
    });
    pass.seconds = secondsSince(start);
    pass.cpuSeconds = selfCpuSeconds() - cpuStart;
    pass.peakRssMb = peakRssMb();

    for (size_t q = 0; q < inputs.size(); ++q)
        pass.records += traces[q].size();
    for (size_t c = 0; c < pass.cells.size(); ++c) {
        pass.jobsReplayed += pass.cells[c].total;
        pass.times += times[c];
        pass.trims += trims[c];
    }
    return pass;
}

/** Check a pass: every cell ok, and counts equal the reference's. */
void
checkPass(const Pass &pass, const Pass *reference,
          const std::vector<QueueInput> &inputs, Report &report)
{
    report.operations(pass.cells.size());
    for (size_t c = 0; c < pass.cells.size(); ++c) {
        const Cell &cell = pass.cells[c];
        if (!report.check(cell.error.empty(), cell.error))
            continue;
        if (reference != nullptr) {
            report.check(cell.sameCounts(reference->cells[c]),
                         inputs[c / kMethodCount].label + " " +
                             kMethods[c % kMethodCount] +
                             ": (evaluated, correct, infinite) differ from"
                             " the reference replay");
        }
    }
}

/** BMBP queues whose coverage is below C by the binomial test. */
size_t
failingQueues(const Pass &pass)
{
    size_t failing = 0;
    for (size_t c = 0; c < pass.cells.size(); c += kMethodCount) {
        const Cell &bmbp = pass.cells[c];
        if (obs::assessCalibration(bmbp.correct, bmbp.evaluated, 0.95).failing)
            ++failing;
    }
    return failing;
}

/** Passes until @p seconds have elapsed (at least one). */
std::vector<Pass>
measure(const std::vector<QueueInput> &inputs, const RunOptions &options,
        const core::RareEventTable &rareTable, bool timed, double seconds,
        const Pass &reference, Report &report)
{
    std::vector<Pass> passes;
    const int64_t start = nowNs();
    do {
        passes.push_back(
            runPass(inputs, workerThreads(options), rareTable, timed));
        checkPass(passes.back(), &reference, inputs, report);
    } while (secondsSince(start) < seconds);
    return passes;
}

/** Median over passes of replayed jobs x methods per second of wall
 *  time, or of CPU time with @p perCpuSecond. */
double
medianThroughput(const std::vector<Pass> &passes, bool perCpuSecond = false)
{
    std::vector<double> rates;
    for (const auto &pass : passes) {
        rates.push_back(static_cast<double>(pass.jobsReplayed) /
                        (perCpuSecond ? pass.cpuSeconds : pass.seconds));
    }
    return median(rates);
}

} // namespace

void
runOfflineReplay(const RunOptions &options, Report &report)
{
    const std::string dir = options.workDir + "/offline-replay";
    std::vector<QueueInput> inputs;
    std::vector<double> setupSeconds;
    for (int i = 0; i < (options.trace ? 1 : kSetupRepeats); ++i) {
        const int64_t start = nowNs();
        inputs = synthesizeCatalog(options, dir);
        setupSeconds.push_back(secondsSince(start));
    }
    const core::RareEventTable rareTable;

    // The first pass warms the page cache and the allocator and gives
    // the reference counts every later pass must reproduce. It runs on
    // this thread alone, so its peak RSS does not depend on how worker
    // allocations overlap or which malloc arenas they land in (either
    // moved the peak by a sixth between runs); peak_rss_mb is its peak.
    const Pass reference = runPass(inputs, 1, rareTable, false);
    checkPass(reference, nullptr, inputs, report);

    if (!options.trace) {
        const auto passes = measure(inputs, options, rareTable, false,
                                    options.seconds, reference, report);
        std::vector<double> cellMicros;
        for (const auto &pass : passes) {
            for (const auto &cell : pass.cells)
                cellMicros.push_back(cell.seconds * 1e6);
        }
        const double throughput = medianThroughput(passes);
        // Per CPU-second, like the daemon workloads: the wall-clock rate
        // also follows the time the host steals from the vCPUs.
        report.metric("setup_s", median(setupSeconds), "s");
        report.metric("throughput_per_s", medianThroughput(passes, true),
                      "1/s");
        report.metric("peak_rss_mb", reference.peakRssMb, "MiB");
        report.note("replay_jobs_per_s", throughput, "jobs*methods/s");
        report.note("replay_p50_us", quantile(cellMicros, 0.50), "us");
        report.note("replay_p99_us", quantile(cellMicros, 0.99), "us");
        report.note("failing_queues",
                    static_cast<double>(failingQueues(reference)), "count");
        report.note("passes", static_cast<double>(passes.size()), "count");
        report.note("replays_timed", static_cast<double>(cellMicros.size()),
                    "count");
        report.note("error_rate", report.errorRate(), "ratio");
        return;
    }

    // Traced: half the time untraced, half traced with every predictor
    // wrapped; the difference in throughput is the tracing overhead.
    const auto plain = measure(inputs, options, rareTable, false,
                               options.seconds / 2, reference, report);
    spans::setEnabled(true);
    const auto traced = measure(inputs, options, rareTable, true,
                                options.seconds / 2, reference, report);
    spans::setEnabled(false);

    const double n = static_cast<double>(traced.size());
    PredictorTimes times;
    size_t trims = 0;
    size_t records = 0;
    size_t evaluated = 0;
    for (const auto &pass : traced) {
        times += pass.times;
        trims += pass.trims;
        records += pass.records;
        for (const auto &cell : pass.cells)
            evaluated += cell.evaluated;
    }
    const auto layers = spans::layers();
    const auto layer = [&](const char *name) {
        const auto it = layers.find(name);
        return it == layers.end() ? spans::LayerTime{} : it->second;
    };
    report.metric("trace.parse_s", layer("trace.parse").totalSeconds / n, "s");
    report.metric("trace.records", static_cast<double>(records) / n, "count");
    report.metric("replay.run_s", layer("replay.run").totalSeconds / n, "s");
    report.metric("replay.self_s", layer("replay.run").selfSeconds / n, "s");
    report.metric("replay.jobs_evaluated", static_cast<double>(evaluated) / n,
                  "count");
    report.metric("core.observe_calls",
                  static_cast<double>(times.observeCalls) / n, "count");
    report.metric("core.observe_s",
                  static_cast<double>(times.observeNs) * 1e-9 / n, "s");
    report.metric("core.refit_calls", static_cast<double>(times.refitCalls) / n,
                  "count");
    report.metric("core.refit_s", static_cast<double>(times.refitNs) * 1e-9 / n,
                  "s");
    report.metric("core.bound_calls", static_cast<double>(times.boundCalls) / n,
                  "count");
    report.metric("core.bound_s", static_cast<double>(times.boundNs) * 1e-9 / n,
                  "s");
    report.metric("core.trims", static_cast<double>(trims) / n, "count");
    report.metric("tracing.overhead_pct",
                  overheadPct(1.0 / medianThroughput(plain),
                              1.0 / medianThroughput(traced)),
                  "%");
}

} // namespace perfbench
