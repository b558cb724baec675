/**
 * @file
 * Byte-identity tests between the legacy getline trace parsers and the
 * zero-copy buffer parsers: same Trace, same IngestReport (every
 * counter and every retained error), same strict-mode failure — in
 * both modes, on the adversarial checked-in corpus, and with chunk
 * sizes small enough to force many parallel chunk merges.
 */

#include <cmath>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "trace/native_format.hh"
#include "trace/swf_format.hh"

namespace qdel {
namespace trace {
namespace {

std::string
corpusText(const std::string &name)
{
    std::ifstream in(std::string(QDEL_CORPUS_DIR) + "/" + name,
                     std::ios::binary);
    std::ostringstream out;
    out << in.rdbuf();
    return std::move(out).str();
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
 * Run @p text through both SWF paths under @p options and assert
 * byte-identical results: equal traces and reports on success, or the
 * exact same ParseError on failure.
 */
void
checkSwfParity(const std::string &text, SwfParseOptions options)
{
    IngestReport stream_report;
    std::istringstream in(text);
    auto via_stream =
        parseSwfTrace(in, "parity.swf", options, &stream_report);

    IngestReport buffer_report;
    auto via_buffer =
        parseSwfBuffer(text, "parity.swf", options, &buffer_report);

    ASSERT_EQ(via_stream.ok(), via_buffer.ok());
    expectReportsEqual(buffer_report, stream_report);
    if (via_stream.ok()) {
        expectTracesEqual(via_buffer.value(), via_stream.value());
    } else {
        EXPECT_EQ(via_buffer.error().file, via_stream.error().file);
        EXPECT_EQ(via_buffer.error().line, via_stream.error().line);
        EXPECT_EQ(via_buffer.error().field, via_stream.error().field);
        EXPECT_EQ(via_buffer.error().reason, via_stream.error().reason);
    }
}

/** Native-format twin of checkSwfParity. */
void
checkNativeParity(const std::string &text, NativeParseOptions options)
{
    IngestReport stream_report;
    std::istringstream in(text);
    auto via_stream =
        parseNativeTrace(in, "parity.txt", options, &stream_report);

    IngestReport buffer_report;
    auto via_buffer =
        parseNativeBuffer(text, "parity.txt", options, &buffer_report);

    ASSERT_EQ(via_stream.ok(), via_buffer.ok());
    expectReportsEqual(buffer_report, stream_report);
    if (via_stream.ok()) {
        expectTracesEqual(via_buffer.value(), via_stream.value());
    } else {
        EXPECT_EQ(via_buffer.error().file, via_stream.error().file);
        EXPECT_EQ(via_buffer.error().line, via_stream.error().line);
        EXPECT_EQ(via_buffer.error().field, via_stream.error().field);
        EXPECT_EQ(via_buffer.error().reason, via_stream.error().reason);
    }
}

TEST(ParseParity, SwfCorpusLenientMultiChunk)
{
    const std::string text = corpusText("mixed.swf");
    for (size_t chunk_bytes : {size_t(0), size_t(64), size_t(17)}) {
        for (long long threads : {1LL, 4LL}) {
            SCOPED_TRACE(chunk_bytes);
            SCOPED_TRACE(threads);
            SwfParseOptions options;
            options.mode = ParseMode::Lenient;
            options.chunkBytes = chunk_bytes;
            options.threads = threads;
            checkSwfParity(text, options);
        }
    }
}

TEST(ParseParity, SwfCorpusStrictMultiChunk)
{
    // The corpus has malformed lines: strict mode must report the SAME
    // first error regardless of chunking, and the counters must cover
    // exactly the lines before it.
    const std::string text = corpusText("mixed.swf");
    for (size_t chunk_bytes : {size_t(0), size_t(64), size_t(17)}) {
        for (long long threads : {1LL, 4LL}) {
            SCOPED_TRACE(chunk_bytes);
            SCOPED_TRACE(threads);
            SwfParseOptions options;
            options.mode = ParseMode::Strict;
            options.chunkBytes = chunk_bytes;
            options.threads = threads;
            checkSwfParity(text, options);
        }
    }
}

TEST(ParseParity, SwfFilterOptionCombinations)
{
    const std::string text = corpusText("mixed.swf");
    for (bool skip_missing_wait : {true, false}) {
        for (bool skip_failed : {true, false}) {
            SCOPED_TRACE(skip_missing_wait);
            SCOPED_TRACE(skip_failed);
            SwfParseOptions options;
            options.mode = ParseMode::Lenient;
            options.skipMissingWait = skip_missing_wait;
            options.skipFailed = skip_failed;
            options.chunkBytes = 64;
            options.threads = 4;
            checkSwfParity(text, options);
        }
    }
}

TEST(ParseParity, SwfEdgeShapes)
{
    SwfParseOptions lenient;
    lenient.mode = ParseMode::Lenient;
    lenient.chunkBytes = 8;
    lenient.threads = 4;
    // Empty input, comment-only, no trailing newline, CRLF line
    // endings, a queue directive after its first record.
    checkSwfParity("", lenient);
    checkSwfParity("; only a comment\n", lenient);
    checkSwfParity("1 100 5 60 4 -1 -1 4 -1 -1 1 1 1 -1 2", lenient);
    checkSwfParity("; Computer: crlf\r\n"
                   "1 100 5 60 4 -1 -1 4 -1 -1 1 1 1 -1 2\r\n",
                   lenient);
    checkSwfParity("1 100 5 60 4 -1 -1 4 -1 -1 1 1 1 -1 3\n"
                   "; Queue: 3 late-name\n"
                   "2 200 6 60 4 -1 -1 4 -1 -1 1 1 1 -1 3\n",
                   lenient);
}

TEST(ParseParity, NativeCorpusBothModes)
{
    const std::string text = corpusText("mixed_native.txt");
    for (ParseMode mode : {ParseMode::Strict, ParseMode::Lenient}) {
        for (size_t chunk_bytes : {size_t(0), size_t(32), size_t(7)}) {
            for (long long threads : {1LL, 4LL}) {
                SCOPED_TRACE(static_cast<int>(mode));
                SCOPED_TRACE(chunk_bytes);
                SCOPED_TRACE(threads);
                NativeParseOptions options;
                options.mode = mode;
                options.chunkBytes = chunk_bytes;
                options.threads = threads;
                checkNativeParity(text, options);
            }
        }
    }
}

TEST(ParseParity, NativeEdgeShapes)
{
    NativeParseOptions lenient;
    lenient.mode = ParseMode::Lenient;
    lenient.chunkBytes = 4;
    lenient.threads = 4;
    checkNativeParity("", lenient);
    checkNativeParity("# site=alpha machine=beta\n100 5\n", lenient);
    checkNativeParity("100 5 4 batch", lenient);
    checkNativeParity("# site=a machine=m\r\n100 5 1 -\r\n", lenient);
}

TEST(ParseParity, SwfSixteenDigitSubmitAndNegativeZero)
{
    // A 16-digit submit time (2^53 + 1) is past the scanner's plain
    // integers and rounds through from_chars; a -0 wait and runtime
    // must keep their sign on both paths.
    const std::string text =
        "1 9007199254740993 -0 -0 4 -1 -1 4 -1 -1 1 1 1 -1 2\n"
        "2 1234567890123456 5 60 -0 -1 -1 -0 -1 -1 -0 1 1 -1 -0\n";
    SwfParseOptions options;
    options.mode = ParseMode::Strict;
    options.chunkBytes = 8;
    options.threads = 4;
    checkSwfParity(text, options);

    std::istringstream in(text);
    const Trace via_stream = parseSwfTrace(in, "p", options).value();
    const Trace via_buffer = parseSwfBuffer(text, "p", options).value();
    ASSERT_EQ(via_buffer.size(), 2u);
    for (size_t i = 0; i < via_buffer.size(); ++i) {
        SCOPED_TRACE(i);
        EXPECT_EQ(std::signbit(via_buffer[i].waitSeconds),
                  std::signbit(via_stream[i].waitSeconds));
        EXPECT_EQ(std::signbit(via_buffer[i].runSeconds),
                  std::signbit(via_stream[i].runSeconds));
    }
    EXPECT_TRUE(std::signbit(via_buffer[1].waitSeconds));
    EXPECT_EQ(via_buffer[1].submitTime, 9007199254740992.0);
}

TEST(ParseParity, NativeSixteenDigitSubmitAndNegativeZero)
{
    const std::string text = "9007199254740993 -0 1 q\n"
                             "1234567890123456 5 1 -\n";
    NativeParseOptions options;
    options.mode = ParseMode::Strict;
    options.chunkBytes = 4;
    options.threads = 4;
    checkNativeParity(text, options);

    std::istringstream in(text);
    const Trace via_stream = parseNativeTrace(in, "p", options).value();
    const Trace via_buffer = parseNativeBuffer(text, "p", options).value();
    ASSERT_EQ(via_buffer.size(), 2u);
    EXPECT_TRUE(std::signbit(via_buffer[1].waitSeconds));
    EXPECT_EQ(std::signbit(via_buffer[1].waitSeconds),
              std::signbit(via_stream[1].waitSeconds));
    EXPECT_EQ(via_buffer[1].submitTime, 9007199254740992.0);
}

} // namespace
} // namespace trace
} // namespace qdel
