/**
 * @file
 * Tests for the binary ".qtc" trace cache: SWF -> .qtc -> records
 * round-trip equality on the checked-in corpus, staleness and
 * corruption detection (truncated and bit-flipped cache files), and
 * the loadTrace fallback-to-text contract — a damaged cache never
 * changes the final Trace, only costs a re-parse.
 */

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "trace/swf_format.hh"
#include "trace/trace_cache.hh"
#include "trace/trace_loader.hh"
#include "util/mapped_file.hh"

namespace qdel {
namespace trace {
namespace {

std::string
corpusFile(const std::string &name)
{
    return std::string(QDEL_CORPUS_DIR) + "/" + name;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream out;
    out << in.rdbuf();
    return std::move(out).str();
}

void
writeFile(const std::string &path, const std::string &content)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << content;
    ASSERT_TRUE(out.good()) << path;
}

void
expectTracesEqual(const Trace &actual, const Trace &expected)
{
    EXPECT_EQ(actual.site(), expected.site());
    EXPECT_EQ(actual.machine(), expected.machine());
    ASSERT_EQ(actual.size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i) {
        SCOPED_TRACE(i);
        EXPECT_EQ(actual[i].submitTime, expected[i].submitTime);
        EXPECT_EQ(actual[i].waitSeconds, expected[i].waitSeconds);
        EXPECT_EQ(actual[i].procs, expected[i].procs);
        EXPECT_EQ(actual[i].runSeconds, expected[i].runSeconds);
        EXPECT_EQ(actual[i].queue, expected[i].queue);
        EXPECT_EQ(actual[i].status, expected[i].status);
    }
}

void
expectReportsEqual(const IngestReport &actual,
                   const IngestReport &expected)
{
    EXPECT_EQ(actual.source, expected.source);
    EXPECT_EQ(actual.totalLines, expected.totalLines);
    EXPECT_EQ(actual.commentLines, expected.commentLines);
    EXPECT_EQ(actual.parsedRecords, expected.parsedRecords);
    EXPECT_EQ(actual.malformedLines, expected.malformedLines);
    EXPECT_EQ(actual.filteredRecords, expected.filteredRecords);
    ASSERT_EQ(actual.errors.size(), expected.errors.size());
    for (size_t i = 0; i < expected.errors.size(); ++i) {
        SCOPED_TRACE(i);
        EXPECT_EQ(actual.errors[i].file, expected.errors[i].file);
        EXPECT_EQ(actual.errors[i].line, expected.errors[i].line);
        EXPECT_EQ(actual.errors[i].field, expected.errors[i].field);
        EXPECT_EQ(actual.errors[i].reason, expected.errors[i].reason);
    }
}

/**
 * A private copy of the corpus SWF file in a per-test scratch
 * directory (each test starts without a leftover ".qtc" sidecar).
 */
struct CacheFixture
{
    std::string dir;
    std::string swfPath;
    Trace parsed{"", ""};
    IngestReport report;
    TraceLoadOptions loadOptions;

    CacheFixture()
    {
        dir = ::testing::TempDir() + "qdel_trace_cache_" +
              ::testing::UnitTest::GetInstance()
                  ->current_test_info()
                  ->name();
        std::filesystem::remove_all(dir);
        std::filesystem::create_directories(dir);
        swfPath = dir + "/mixed.swf";
        writeFile(swfPath, readFile(corpusFile("mixed.swf")));

        // The corpus file contains malformed lines on purpose, so the
        // cache workflow runs in lenient mode.
        loadOptions.mode = ParseMode::Lenient;
        loadOptions.cache = true;

        SwfParseOptions text_options;
        text_options.mode = ParseMode::Lenient;
        parsed = loadSwfTrace(swfPath, text_options, &report).value();
    }

    uint32_t optionsWord() const
    {
        SwfParseOptions text_options;
        text_options.mode = ParseMode::Lenient;
        return swfCacheOptions(text_options);
    }

    std::string cachePath() const { return traceCachePath(swfPath, ""); }
};

TEST(TraceCache, RoundTripPreservesRecordsAndReport)
{
    CacheFixture fx;
    const auto stamp = FileStamp::of(fx.swfPath).value();
    ASSERT_TRUE(writeTraceCache(fx.cachePath(), fx.parsed, fx.report,
                                fx.optionsWord(), stamp)
                    .ok());

    auto cached = readTraceCache(fx.cachePath(), fx.optionsWord(), stamp);
    ASSERT_EQ(cached.status, CacheStatus::Hit) << cached.detail;
    expectTracesEqual(cached.trace, fx.parsed);
    expectReportsEqual(cached.report, fx.report);
}

TEST(TraceCache, LoadedTraceKnowsWhetherItIsSorted)
{
    CacheFixture fx;
    const auto stamp = FileStamp::of(fx.swfPath).value();
    Trace unsorted = fx.parsed;
    unsorted.add({-1.0, 1.0, 1, 1.0, "late"});
    for (const Trace *t : {&fx.parsed, &unsorted}) {
        ASSERT_TRUE(writeTraceCache(fx.cachePath(), *t, fx.report,
                                    fx.optionsWord(), stamp)
                        .ok());
        auto cached =
            readTraceCache(fx.cachePath(), fx.optionsWord(), stamp);
        // A loaded trace is always sorted: unsorted columns under a
        // valid CRC are a corrupt cache, not a hit.
        if (t == &unsorted) {
            EXPECT_EQ(cached.status, CacheStatus::Corrupt);
            continue;
        }
        ASSERT_EQ(cached.status, CacheStatus::Hit) << cached.detail;
        const bool scanned = std::is_sorted(
            cached.trace.begin(), cached.trace.end(),
            [](const JobRecord &a, const JobRecord &b) {
                return a.submitTime < b.submitTime;
            });
        EXPECT_TRUE(scanned);
        EXPECT_TRUE(cached.trace.isSorted());
    }
}

TEST(TraceCache, UnsortedOrNonFiniteCacheFallsBackToTextParse)
{
    CacheFixture fx;
    const auto stamp = FileStamp::of(fx.swfPath).value();
    Trace unsorted = fx.parsed;
    unsorted.add({-1.0, 1.0, 1, 1.0, "late"});
    Trace non_finite = fx.parsed;
    non_finite.add({std::numeric_limits<double>::quiet_NaN(), 1.0, 1, 1.0,
                    "late"});
    for (const Trace *t : {&unsorted, &non_finite}) {
        SCOPED_TRACE(t == &unsorted ? "unsorted" : "non-finite");
        // writeTraceCache gives the tampered columns a valid CRC.
        ASSERT_TRUE(writeTraceCache(fx.cachePath(), *t, fx.report,
                                    fx.optionsWord(), stamp)
                        .ok());
        auto cached =
            readTraceCache(fx.cachePath(), fx.optionsWord(), stamp);
        EXPECT_EQ(cached.status, CacheStatus::Corrupt);

        IngestReport rep;
        auto loaded = loadTrace(fx.swfPath, fx.loadOptions, &rep);
        ASSERT_TRUE(loaded.ok());
        expectTracesEqual(loaded.value(), fx.parsed);
        expectReportsEqual(rep, fx.report);
        auto rewritten =
            readTraceCache(fx.cachePath(), fx.optionsWord(), stamp);
        EXPECT_EQ(rewritten.status, CacheStatus::Hit) << rewritten.detail;
    }
}

TEST(TraceCache, LoadTraceWritesThenHits)
{
    CacheFixture fx;
    ASSERT_FALSE(std::filesystem::exists(fx.cachePath()));

    // First load: cache miss, text parse, cache written.
    IngestReport first_report;
    auto first = loadTrace(fx.swfPath, fx.loadOptions, &first_report);
    ASSERT_TRUE(first.ok());
    EXPECT_TRUE(std::filesystem::exists(fx.cachePath()));
    expectTracesEqual(first.value(), fx.parsed);
    expectReportsEqual(first_report, fx.report);

    // Second load: served from the cache, still identical.
    IngestReport second_report;
    auto second = loadTrace(fx.swfPath, fx.loadOptions, &second_report);
    ASSERT_TRUE(second.ok());
    expectTracesEqual(second.value(), fx.parsed);
    expectReportsEqual(second_report, fx.report);
}

TEST(TraceCache, StaleOnSourceChange)
{
    CacheFixture fx;
    ASSERT_TRUE(loadTrace(fx.swfPath, fx.loadOptions).ok());

    // Appending a record changes the source stamp; the old cache must
    // not be served.
    writeFile(fx.swfPath,
              readFile(fx.swfPath) +
                  "21 99000 50 600 16 -1 -1 16 -1 -1 1 1 1 -1 0\n");
    const auto stamp = FileStamp::of(fx.swfPath).value();
    auto cached = readTraceCache(fx.cachePath(), fx.optionsWord(), stamp);
    EXPECT_EQ(cached.status, CacheStatus::Stale);

    SwfParseOptions text_options;
    text_options.mode = ParseMode::Lenient;
    auto reparsed = loadSwfTrace(fx.swfPath, text_options).value();
    auto reloaded = loadTrace(fx.swfPath, fx.loadOptions);
    ASSERT_TRUE(reloaded.ok());
    expectTracesEqual(reloaded.value(), reparsed);
    EXPECT_EQ(reloaded.value().size(), fx.parsed.size() + 1);
}

TEST(TraceCache, StaleOnOptionsChange)
{
    CacheFixture fx;
    ASSERT_TRUE(loadTrace(fx.swfPath, fx.loadOptions).ok());
    const auto stamp = FileStamp::of(fx.swfPath).value();

    SwfParseOptions other;
    other.mode = ParseMode::Lenient;
    other.skipMissingWait = false;
    ASSERT_NE(swfCacheOptions(other), fx.optionsWord());
    auto cached =
        readTraceCache(fx.cachePath(), swfCacheOptions(other), stamp);
    EXPECT_EQ(cached.status, CacheStatus::Stale);
}

TEST(TraceCache, MissingCacheReported)
{
    CacheFixture fx;
    const auto stamp = FileStamp::of(fx.swfPath).value();
    auto cached = readTraceCache(fx.cachePath(), fx.optionsWord(), stamp);
    EXPECT_EQ(cached.status, CacheStatus::Missing);
}

TEST(TraceCache, TruncatedCacheFallsBackToTextParse)
{
    CacheFixture fx;
    ASSERT_TRUE(loadTrace(fx.swfPath, fx.loadOptions).ok());

    const std::string cache = readFile(fx.cachePath());
    ASSERT_GT(cache.size(), 64u);
    writeFile(fx.cachePath(), cache.substr(0, cache.size() / 2));

    const auto stamp = FileStamp::of(fx.swfPath).value();
    auto cached = readTraceCache(fx.cachePath(), fx.optionsWord(), stamp);
    EXPECT_EQ(cached.status, CacheStatus::Corrupt);

    // loadTrace survives the damage: same Trace as a pure text parse,
    // and the cache is rewritten so the next load hits again.
    IngestReport rep;
    auto loaded = loadTrace(fx.swfPath, fx.loadOptions, &rep);
    ASSERT_TRUE(loaded.ok());
    expectTracesEqual(loaded.value(), fx.parsed);
    expectReportsEqual(rep, fx.report);
    auto rewritten =
        readTraceCache(fx.cachePath(), fx.optionsWord(), stamp);
    EXPECT_EQ(rewritten.status, CacheStatus::Hit) << rewritten.detail;
}

TEST(TraceCache, BitFlippedCacheFallsBackToTextParse)
{
    CacheFixture fx;
    ASSERT_TRUE(loadTrace(fx.swfPath, fx.loadOptions).ok());

    std::string cache = readFile(fx.cachePath());
    ASSERT_GT(cache.size(), 64u);
    // Flip a bit in a data column, past the header so the CRC is the
    // detector rather than the magic/size checks.
    cache[cache.size() / 2] ^= 0x10;
    writeFile(fx.cachePath(), cache);

    const auto stamp = FileStamp::of(fx.swfPath).value();
    auto cached = readTraceCache(fx.cachePath(), fx.optionsWord(), stamp);
    EXPECT_EQ(cached.status, CacheStatus::Corrupt);

    IngestReport rep;
    auto loaded = loadTrace(fx.swfPath, fx.loadOptions, &rep);
    ASSERT_TRUE(loaded.ok());
    expectTracesEqual(loaded.value(), fx.parsed);
    expectReportsEqual(rep, fx.report);
}

TEST(TraceCache, TruncatedToHeaderOnlyIsCorrupt)
{
    CacheFixture fx;
    ASSERT_TRUE(loadTrace(fx.swfPath, fx.loadOptions).ok());
    const std::string cache = readFile(fx.cachePath());
    writeFile(fx.cachePath(), cache.substr(0, 16));
    const auto stamp = FileStamp::of(fx.swfPath).value();
    auto cached = readTraceCache(fx.cachePath(), fx.optionsWord(), stamp);
    EXPECT_EQ(cached.status, CacheStatus::Corrupt);
}

TEST(TraceCache, CacheDirPlacesSidecarElsewhere)
{
    CacheFixture fx;
    const std::string cache_dir = fx.dir + "/cachedir";
    TraceLoadOptions options = fx.loadOptions;
    options.cacheDir = cache_dir;

    auto loaded = loadTrace(fx.swfPath, options);
    ASSERT_TRUE(loaded.ok());
    const std::string expected_path =
        traceCachePath(fx.swfPath, cache_dir);
    EXPECT_EQ(expected_path, cache_dir + "/mixed.swf.qtc");
    EXPECT_TRUE(std::filesystem::exists(expected_path));
    EXPECT_FALSE(std::filesystem::exists(fx.cachePath()));
    expectTracesEqual(loaded.value(), fx.parsed);
}

TEST(TraceCache, NativeTraceRoundTrips)
{
    const std::string dir = ::testing::TempDir() + "qdel_trace_cache_nat";
    std::filesystem::create_directories(dir);
    const std::string path = dir + "/mixed_native.txt";
    writeFile(path, readFile(corpusFile("mixed_native.txt")));

    TraceLoadOptions options;
    options.mode = ParseMode::Lenient;
    options.cache = true;

    IngestReport text_report;
    TraceLoadOptions text_only = options;
    text_only.cache = false;
    auto text = loadTrace(path, text_only, &text_report);
    ASSERT_TRUE(text.ok());

    IngestReport warm_report;
    auto warm = loadTrace(path, options, &warm_report);
    ASSERT_TRUE(warm.ok());
    IngestReport hit_report;
    auto hit = loadTrace(path, options, &hit_report);
    ASSERT_TRUE(hit.ok());

    expectTracesEqual(warm.value(), text.value());
    expectTracesEqual(hit.value(), text.value());
    expectReportsEqual(warm_report, text_report);
    expectReportsEqual(hit_report, text_report);
}

} // namespace
} // namespace trace
} // namespace qdel
