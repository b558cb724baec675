/**
 * @file
 * Unit tests for the native trace format parser/writer.
 */

#include <cstdio>
#include <sstream>

#include <gtest/gtest.h>

#include "edge_trace.hh"
#include "trace/native_format.hh"
#include "trace/text_writer.hh"

namespace qdel {
namespace trace {
namespace {

TEST(NativeParse, MinimalTwoColumn)
{
    std::istringstream in("1000 50\n2000 0\n");
    auto t = parseNativeTrace(in).value();
    ASSERT_EQ(t.size(), 2u);
    EXPECT_DOUBLE_EQ(t[0].submitTime, 1000.0);
    EXPECT_DOUBLE_EQ(t[0].waitSeconds, 50.0);
    EXPECT_EQ(t[0].procs, 1);  // default
    EXPECT_TRUE(t[0].queue.empty());
}

TEST(NativeParse, FullFourColumn)
{
    std::istringstream in("1000 50 16 normal\n");
    auto t = parseNativeTrace(in).value();
    ASSERT_EQ(t.size(), 1u);
    EXPECT_EQ(t[0].procs, 16);
    EXPECT_EQ(t[0].queue, "normal");
}

TEST(NativeParse, CommentsAndBlanksIgnored)
{
    std::istringstream in("# header\n\n  \n1000 1\n# trailing\n");
    EXPECT_EQ(parseNativeTrace(in).value().size(), 1u);
}

TEST(NativeParse, SortsBySubmitTime)
{
    std::istringstream in("3000 1\n1000 2\n2000 3\n");
    auto t = parseNativeTrace(in).value();
    EXPECT_TRUE(t.isSorted());
    EXPECT_DOUBLE_EQ(t[0].waitSeconds, 2.0);
}

TEST(NativeParse, DashQueueMeansEmpty)
{
    std::istringstream in("1000 1 4 -\n");
    auto t = parseNativeTrace(in).value();
    EXPECT_TRUE(t[0].queue.empty());
}

TEST(NativeParse, StrictModeRejectsMalformedLines)
{
    {
        std::istringstream in("justonefield\n");
        auto t = parseNativeTrace(in, "bad.txt");
        ASSERT_FALSE(t.ok());
        EXPECT_EQ(t.error().file, "bad.txt");
        EXPECT_EQ(t.error().line, 1u);
        EXPECT_NE(t.error().reason.find("at least"), std::string::npos);
    }
    {
        std::istringstream in("1000 abc\n");
        auto t = parseNativeTrace(in);
        ASSERT_FALSE(t.ok());
        EXPECT_EQ(t.error().field, "field 2 (wait)");
        EXPECT_NE(t.error().reason.find("bad numeric value"),
                  std::string::npos);
    }
    {
        std::istringstream in("1000 -5\n");
        auto t = parseNativeTrace(in);
        ASSERT_FALSE(t.ok());
        EXPECT_NE(t.error().reason.find("negative wait"),
                  std::string::npos);
    }
    {
        std::istringstream in("1000 5 0\n");
        auto t = parseNativeTrace(in);
        ASSERT_FALSE(t.ok());
        EXPECT_NE(t.error().reason.find("bad processor count"),
                  std::string::npos);
    }
    {
        // Non-finite values are rejected even though strtod accepts
        // the spelling.
        std::istringstream in("inf 5\n");
        auto t = parseNativeTrace(in);
        ASSERT_FALSE(t.ok());
        EXPECT_EQ(t.error().field, "field 1 (submit)");
    }
}

TEST(NativeParse, StrictStopsAtFirstErrorAndRecordsIt)
{
    std::istringstream in("# ok\n1000 1\n1000 abc\n2000 2\n");
    IngestReport report;
    auto t = parseNativeTrace(in, "part.txt", {}, &report);
    ASSERT_FALSE(t.ok());
    EXPECT_EQ(t.error().line, 3u);
    // The report describes everything consumed up to the failure.
    EXPECT_EQ(report.totalLines, 3u);
    EXPECT_EQ(report.commentLines, 1u);
    EXPECT_EQ(report.parsedRecords, 1u);
    EXPECT_EQ(report.malformedLines, 1u);
    ASSERT_EQ(report.errors.size(), 1u);
    EXPECT_EQ(report.errors[0].line, 3u);
}

TEST(NativeParse, LenientModeSkipsAndCounts)
{
    std::istringstream in("# ok\n1000 1\n1000 abc\nbad\n2000 2\n");
    NativeParseOptions options;
    options.mode = ParseMode::Lenient;
    IngestReport report;
    auto t = parseNativeTrace(in, "mixed.txt", options, &report);
    ASSERT_TRUE(t.ok());
    EXPECT_EQ(t.value().size(), 2u);
    EXPECT_EQ(report.totalLines, 5u);
    EXPECT_EQ(report.commentLines, 1u);
    EXPECT_EQ(report.parsedRecords, 2u);
    EXPECT_EQ(report.malformedLines, 2u);
    EXPECT_EQ(report.filteredRecords, 0u);
    EXPECT_EQ(report.accounted(), report.totalLines);
}

TEST(NativeRoundTrip, PreservesRecords)
{
    Trace original("site", "machine");
    original.add({1000.0, 25.5, 8, -1.0, "high"});
    original.add({2000.0, 0.0, 1, -1.0, ""});
    original.sortBySubmitTime();

    std::ostringstream out;
    writeNativeTrace(original, out);
    std::istringstream in(out.str());
    auto parsed = parseNativeTrace(in).value();

    ASSERT_EQ(parsed.size(), original.size());
    for (size_t i = 0; i < parsed.size(); ++i) {
        EXPECT_DOUBLE_EQ(parsed[i].submitTime, original[i].submitTime);
        EXPECT_NEAR(parsed[i].waitSeconds, original[i].waitSeconds, 1e-9);
        EXPECT_EQ(parsed[i].procs, original[i].procs);
        EXPECT_EQ(parsed[i].queue, original[i].queue);
    }
}

TEST(NativeRoundTrip, WriteParseWriteIsByteStable)
{
    // Fractional waits exercise the %.6g re-rendering: after one
    // write->parse cycle the text representation is a fixpoint.
    Trace original("site", "machine");
    original.add({1000.0, 25.5, 8, -1.0, "high"});
    original.add({2000.0, 1.0 / 3.0, 1, -1.0, ""});
    original.add({3000.0, 123456.789, 4, -1.0, "wide"});
    original.sortBySubmitTime();

    std::ostringstream first;
    writeNativeTrace(original, first);
    std::istringstream in1(first.str());
    auto reparsed = parseNativeTrace(in1).value();
    std::ostringstream second;
    writeNativeTrace(reparsed, second);

    EXPECT_EQ(first.str(), second.str());
}

TEST(NativeFile, SaveAndLoad)
{
    const std::string path =
        ::testing::TempDir() + "qdel_native_test.txt";
    Trace original("s", "m");
    original.add({5.0, 7.0, 2, -1.0, "q"});
    ASSERT_TRUE(saveNativeTrace(original, path).ok());
    auto loaded = loadNativeTrace(path).value();
    ASSERT_EQ(loaded.size(), 1u);
    EXPECT_DOUBLE_EQ(loaded[0].waitSeconds, 7.0);
    std::remove(path.c_str());
}

TEST(NativeFile, MissingFileIsAnError)
{
    auto t = loadNativeTrace("/no/such/file.txt");
    ASSERT_FALSE(t.ok());
    EXPECT_NE(t.error().reason.find("cannot open"), std::string::npos);
    EXPECT_EQ(t.error().file, "/no/such/file.txt");
}

TEST(NativeWriterDifferential, EdgeValuesMatchPrintf)
{
    // writeNativeTrace() spelled with one snprintf per line.
    const Trace t = edge::edgeTrace();
    std::ostringstream expected;
    expected << "# site=" << t.site() << " machine=" << t.machine() << "\n";
    expected << "# submit wait procs queue\n";
    for (const auto &job : t) {
        expected << edge::printfString(
            "%.0f %.6g %d %s\n", job.submitTime, job.waitSeconds, job.procs,
            job.queue.empty() ? "-" : job.queue.c_str());
    }

    std::ostringstream out;
    writeNativeTrace(t, out);
    ASSERT_GT(expected.str().size(), TextWriter::kCapacity);
    ASSERT_EQ(out.str().size(), expected.str().size());
    EXPECT_TRUE(out.str() == expected.str());
}

} // namespace
} // namespace trace
} // namespace qdel
