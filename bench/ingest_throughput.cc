/**
 * @file
 * End-to-end trace ingestion throughput benchmarks (google-benchmark):
 * the numbers behind the zero-copy parser and the binary ".qtc" trace
 * cache.
 *
 * Four layers are measured on the same synthesized SWF/native traces
 * (the largest queue in the paper's catalog, ~hundreds of thousands of
 * jobs):
 *
 *  - text parse: the legacy getline/istream path vs the zero-copy
 *    mmap-backed buffer path (MB/s of source text, single-thread and
 *    with the chunk-parallel fan-out);
 *  - cache: ".qtc" write, and ".qtc" load vs re-parsing the text
 *    (the cache load processes the *binary* file, so compare the
 *    per-iteration times — both paths produce the identical Trace);
 *  - the producing side: synthesizing the trace, and writing it as
 *    SWF and as native text to a file;
 *  - full replay: cached load + a complete BMBP replay evaluation,
 *    reported as jobs/second end to end.
 *
 * Every benchmark also reports a jobs_per_sec rate counter so runs on
 * different trace sizes stay comparable.
 */

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include <benchmark/benchmark.h>

#include "sim/replay/evaluation.hh"
#include "trace/native_format.hh"
#include "trace/swf_format.hh"
#include "trace/trace_cache.hh"
#include "trace/trace_loader.hh"
#include "util/mapped_file.hh"
#include "workload/site_catalog.hh"
#include "workload/synthesizer.hh"

namespace {

using namespace qdel;

/** The catalog profile with the most jobs (the parse stress case). */
const workload::QueueProfile &
largestProfile()
{
    const workload::QueueProfile *best = nullptr;
    for (const auto &profile : workload::siteCatalog()) {
        if (!best || profile.jobCount > best->jobCount)
            best = &profile;
    }
    return *best;
}

/** A mid-sized profile (~tens of thousands of jobs) for the replay. */
const workload::QueueProfile &
replayProfile()
{
    const workload::QueueProfile *best = nullptr;
    for (const auto &profile : workload::siteCatalog()) {
        if (profile.jobCount > 40000)
            continue;
        if (!best || profile.jobCount > best->jobCount)
            best = &profile;
    }
    return *best;
}

/** Lazily materialized shared inputs (synthesis is the slow part). */
struct Corpus
{
    trace::Trace trace;        //!< The synthesized reference trace.
    std::string swfText;       //!< Its SWF serialization.
    std::string swfPath;       //!< ... on disk.
    std::string nativeText;    //!< Its native-format serialization.
    std::string cachePath;     //!< ".qtc" written from the trace.
    trace::Trace replayTrace;  //!< Smaller trace for the replay bench.
    std::string replayPath;    //!< ... on disk (native format).

    Corpus()
    {
        const auto dir = std::filesystem::temp_directory_path() /
                         "qdel_ingest_bench";
        std::filesystem::create_directories(dir);

        trace = workload::synthesizeTrace(largestProfile(), 1);
        {
            std::ostringstream swf;
            trace::writeSwfTrace(trace, swf);
            swfText = std::move(swf).str();
        }
        swfPath = (dir / "largest.swf").string();
        std::ofstream(swfPath, std::ios::binary) << swfText;
        {
            std::ostringstream native;
            trace::writeNativeTrace(trace, native);
            nativeText = std::move(native).str();
        }

        // The SWF writer drops sub-second precision, so cache exactly
        // what a text parse of the file yields.
        cachePath = trace::traceCachePath(swfPath, "");
        trace::IngestReport report;
        auto parsed = trace::loadSwfTrace(swfPath, {}, &report);
        (void)trace::writeTraceCache(
            cachePath, parsed.value(), report,
            trace::swfCacheOptions({}),
            FileStamp::of(swfPath).value());

        replayTrace = workload::synthesizeTrace(replayProfile(), 1);
        replayPath = (dir / "replay.txt").string();
        {
            std::ofstream out(replayPath, std::ios::binary);
            trace::writeNativeTrace(replayTrace, out);
        }
    }
};

const Corpus &
corpus()
{
    static Corpus c;
    return c;
}

void
reportRates(benchmark::State &state, size_t bytes, size_t jobs)
{
    state.SetBytesProcessed(
        static_cast<int64_t>(state.iterations() * bytes));
    state.counters["jobs_per_sec"] = benchmark::Counter(
        static_cast<double>(state.iterations() * jobs),
        benchmark::Counter::kIsRate);
}

// ---------------------------------------------------------------------
// Text parse: getline reference vs zero-copy buffer scan.

void
BM_SwfParseGetline(benchmark::State &state)
{
    const Corpus &c = corpus();
    for (auto _ : state) {
        std::istringstream in(c.swfText);
        auto parsed = trace::parseSwfTrace(in, "bench.swf");
        benchmark::DoNotOptimize(parsed.value().size());
    }
    reportRates(state, c.swfText.size(), c.trace.size());
}
BENCHMARK(BM_SwfParseGetline)->Unit(benchmark::kMillisecond);

void
BM_SwfParseBuffer(benchmark::State &state)
{
    // Arg: parse threads (1 = sequential; 0 = auto/thread-pool).
    const Corpus &c = corpus();
    trace::SwfParseOptions options;
    options.threads = state.range(0);
    for (auto _ : state) {
        auto parsed =
            trace::parseSwfBuffer(c.swfText, "bench.swf", options);
        benchmark::DoNotOptimize(parsed.value().size());
    }
    reportRates(state, c.swfText.size(), c.trace.size());
}
BENCHMARK(BM_SwfParseBuffer)->Arg(1)->Arg(0)->Unit(benchmark::kMillisecond);

void
BM_SwfLoadMmap(benchmark::State &state)
{
    // The full file path: open + mmap + zero-copy parse.
    const Corpus &c = corpus();
    for (auto _ : state) {
        auto parsed = trace::loadSwfTrace(c.swfPath);
        benchmark::DoNotOptimize(parsed.value().size());
    }
    reportRates(state, c.swfText.size(), c.trace.size());
}
BENCHMARK(BM_SwfLoadMmap)->Unit(benchmark::kMillisecond);

void
BM_NativeParseGetline(benchmark::State &state)
{
    const Corpus &c = corpus();
    for (auto _ : state) {
        std::istringstream in(c.nativeText);
        auto parsed = trace::parseNativeTrace(in, "bench.txt");
        benchmark::DoNotOptimize(parsed.value().size());
    }
    reportRates(state, c.nativeText.size(), c.trace.size());
}
BENCHMARK(BM_NativeParseGetline)->Unit(benchmark::kMillisecond);

void
BM_NativeParseBuffer(benchmark::State &state)
{
    const Corpus &c = corpus();
    for (auto _ : state) {
        auto parsed =
            trace::parseNativeBuffer(c.nativeText, "bench.txt");
        benchmark::DoNotOptimize(parsed.value().size());
    }
    reportRates(state, c.nativeText.size(), c.trace.size());
}
BENCHMARK(BM_NativeParseBuffer)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------
// Binary cache: write once, load every run after.

void
BM_QtcWrite(benchmark::State &state)
{
    const Corpus &c = corpus();
    const auto stamp = FileStamp::of(c.swfPath).value();
    trace::IngestReport report;
    auto parsed = trace::loadSwfTrace(c.swfPath, {}, &report);
    const std::string path = c.cachePath + ".bench";
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            trace::writeTraceCache(path, parsed.value(), report,
                                   trace::swfCacheOptions({}), stamp)
                .ok());
    }
    std::filesystem::remove(path);
    reportRates(state, c.swfText.size(), c.trace.size());
}
BENCHMARK(BM_QtcWrite)->Unit(benchmark::kMillisecond);

void
BM_QtcLoad(benchmark::State &state)
{
    // Compare per-iteration time against BM_SwfLoadMmap: identical
    // Trace out, binary columns in (bytes processed here are the
    // cache file's, not the source text's).
    const Corpus &c = corpus();
    const auto stamp = FileStamp::of(c.swfPath).value();
    const size_t cache_bytes =
        static_cast<size_t>(std::filesystem::file_size(c.cachePath));
    for (auto _ : state) {
        auto cached = trace::readTraceCache(
            c.cachePath, trace::swfCacheOptions({}), stamp);
        if (cached.status != trace::CacheStatus::Hit) {
            state.SkipWithError("cache load missed");
            return;
        }
        benchmark::DoNotOptimize(cached.trace.size());
    }
    reportRates(state, cache_bytes, c.trace.size());
}
BENCHMARK(BM_QtcLoad)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------
// The other direction: synthesis and the text writers (what a catalog
// set-up spends its time on).

void
BM_SynthesizeTrace(benchmark::State &state)
{
    const Corpus &c = corpus();
    for (auto _ : state) {
        const auto t = workload::synthesizeTrace(largestProfile(), 1);
        benchmark::DoNotOptimize(t.size());
    }
    state.counters["jobs_per_sec"] = benchmark::Counter(
        static_cast<double>(state.iterations() * c.trace.size()),
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SynthesizeTrace)->Unit(benchmark::kMillisecond);

void
BM_SwfWrite(benchmark::State &state)
{
    const Corpus &c = corpus();
    const std::string path = c.swfPath + ".bench";
    for (auto _ : state)
        benchmark::DoNotOptimize(trace::saveSwfTrace(c.trace, path).ok());
    std::filesystem::remove(path);
    reportRates(state, c.swfText.size(), c.trace.size());
}
BENCHMARK(BM_SwfWrite)->Unit(benchmark::kMillisecond);

void
BM_NativeWrite(benchmark::State &state)
{
    const Corpus &c = corpus();
    const std::string path = c.swfPath + ".native.bench";
    for (auto _ : state)
        benchmark::DoNotOptimize(trace::saveNativeTrace(c.trace, path).ok());
    std::filesystem::remove(path);
    reportRates(state, c.nativeText.size(), c.trace.size());
}
BENCHMARK(BM_NativeWrite)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------
// End to end: cached load + full BMBP replay evaluation.

void
BM_FullReplay(benchmark::State &state)
{
    const Corpus &c = corpus();
    trace::TraceLoadOptions load_options;
    load_options.cache = true;
    // Warm the cache outside the timed region (first run parses text).
    (void)trace::loadTrace(c.replayPath, load_options).ok();

    core::PredictorOptions predictor_options;
    sim::ReplayConfig replay;
    for (auto _ : state) {
        auto loaded = trace::loadTrace(c.replayPath, load_options);
        const auto cell = sim::evaluateTrace(loaded.value(), "bmbp",
                                             predictor_options, replay);
        benchmark::DoNotOptimize(cell.correctFraction);
    }
    state.counters["jobs_per_sec"] = benchmark::Counter(
        static_cast<double>(state.iterations() * c.replayTrace.size()),
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_FullReplay)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
