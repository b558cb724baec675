/**
 * @file
 * Unit tests for the Standard Workload Format parser/writer.
 */

#include <cstdio>
#include <map>
#include <sstream>

#include <gtest/gtest.h>

#include "edge_trace.hh"
#include "trace/swf_format.hh"
#include "workload/site_catalog.hh"
#include "workload/stream_synth.hh"

namespace qdel {
namespace trace {
namespace {

const char *kSample =
    "; Computer: TestMachine\n"
    "; a header comment\n"
    "1 1000 50 600 16 -1 -1 16 3600 -1 1 4 2 -1 0 -1 -1 -1\n"
    "2 2000 -1 300 8 -1 -1 8 1800 -1 1 4 2 -1 1 -1 -1 -1\n"
    "3 3000 10 100 4 -1 -1 -1 900 -1 0 4 2 -1 0 -1 -1 -1\n";

TEST(SwfParse, FieldsMapped)
{
    std::istringstream in(kSample);
    auto t = parseSwfTrace(in).value();
    // Record 2 has missing wait (-1) and is skipped by default.
    ASSERT_EQ(t.size(), 2u);
    EXPECT_DOUBLE_EQ(t[0].submitTime, 1000.0);
    EXPECT_DOUBLE_EQ(t[0].waitSeconds, 50.0);
    EXPECT_DOUBLE_EQ(t[0].runSeconds, 600.0);
    EXPECT_EQ(t[0].procs, 16);
    EXPECT_EQ(t[0].queue, "q0");
    EXPECT_EQ(t[0].status, 1);
    // Record 3 has no requested procs; allocated procs (field 5) used.
    EXPECT_EQ(t[1].procs, 4);
    EXPECT_EQ(t[1].status, 0);
}

TEST(SwfParse, KeepMissingWait)
{
    std::istringstream in(kSample);
    SwfParseOptions options;
    options.skipMissingWait = false;
    auto t = parseSwfTrace(in, "<in>", options).value();
    ASSERT_EQ(t.size(), 3u);
    // A missing wait is preserved as -1, not clamped to zero.
    EXPECT_DOUBLE_EQ(t[1].waitSeconds, -1.0);
    EXPECT_FALSE(t[1].hasWait());
    EXPECT_TRUE(t[0].hasWait());
}

TEST(SwfParse, SkipFailedJobs)
{
    std::istringstream in(kSample);
    SwfParseOptions options;
    options.skipFailed = true;  // record 3 has status 0
    auto t = parseSwfTrace(in, "<in>", options).value();
    ASSERT_EQ(t.size(), 1u);
    EXPECT_EQ(t[0].procs, 16);
}

TEST(SwfParse, ReportAccountsForEveryLine)
{
    std::istringstream in(kSample);
    IngestReport report;
    auto t = parseSwfTrace(in, "sample.swf", {}, &report);
    ASSERT_TRUE(t.ok());
    EXPECT_EQ(report.source, "sample.swf");
    EXPECT_EQ(report.totalLines, 5u);
    EXPECT_EQ(report.commentLines, 2u);
    EXPECT_EQ(report.parsedRecords, 2u);
    EXPECT_EQ(report.filteredRecords, 1u);  // missing-wait record
    EXPECT_EQ(report.malformedLines, 0u);
    EXPECT_EQ(report.accounted(), report.totalLines);
}

TEST(SwfParse, StrictModeFailsWithContext)
{
    {
        std::istringstream in("1 2 3\n");
        auto t = parseSwfTrace(in, "bad.swf");
        ASSERT_FALSE(t.ok());
        EXPECT_EQ(t.error().file, "bad.swf");
        EXPECT_EQ(t.error().line, 1u);
        EXPECT_NE(t.error().reason.find("at least 5 fields"),
                  std::string::npos);
    }
    {
        std::istringstream in("; ok\n1 xyz 50 600 16\n");
        auto t = parseSwfTrace(in, "bad.swf");
        ASSERT_FALSE(t.ok());
        EXPECT_EQ(t.error().line, 2u);
        EXPECT_EQ(t.error().field, "field 2");
        EXPECT_NE(t.error().reason.find("bad SWF numeric value"),
                  std::string::npos);
    }
    {
        std::istringstream in("1 1000 50 600 xyz\n");
        auto t = parseSwfTrace(in, "bad.swf");
        ASSERT_FALSE(t.ok());
        EXPECT_EQ(t.error().field, "field 5");
        EXPECT_NE(t.error().reason.find("bad SWF integer value"),
                  std::string::npos);
    }
    {
        // Non-finite numerics are data errors, not values.
        std::istringstream in("1 nan 50 600 16\n");
        EXPECT_FALSE(parseSwfTrace(in).ok());
    }
    {
        // Processor counts beyond int range are rejected, not wrapped.
        std::istringstream in("1 1000 50 600 99999999999\n");
        auto t = parseSwfTrace(in);
        ASSERT_FALSE(t.ok());
        EXPECT_NE(t.error().reason.find("processor count"),
                  std::string::npos);
    }
}

TEST(SwfParse, LenientModeSkipsAndCounts)
{
    std::istringstream in("; header\n"
                          "1 1000 50 600 16\n"
                          "garbage line here x\n"
                          "2 abc 50 600 16\n"
                          "3 3000 10 100 4\n");
    SwfParseOptions options;
    options.mode = ParseMode::Lenient;
    IngestReport report;
    auto t = parseSwfTrace(in, "mixed.swf", options, &report);
    ASSERT_TRUE(t.ok());
    EXPECT_EQ(t.value().size(), 2u);
    EXPECT_EQ(report.totalLines, 5u);
    EXPECT_EQ(report.commentLines, 1u);
    EXPECT_EQ(report.parsedRecords, 2u);
    EXPECT_EQ(report.malformedLines, 2u);
    EXPECT_EQ(report.accounted(), report.totalLines);
    ASSERT_EQ(report.errors.size(), 2u);
    EXPECT_EQ(report.errors[0].line, 3u);
    EXPECT_EQ(report.errors[1].line, 4u);
    EXPECT_NE(report.summary().find("2 malformed"), std::string::npos);
}

TEST(SwfRoundTrip, PreservesCoreFields)
{
    Trace original("NERSC", "SP");
    original.add({1000.0, 42.0, 8, 3600.0, "regular"});
    original.add({2000.0, 0.0, 64, 60.0, "debug"});
    original.add({3000.0, 7.0, 8, 600.0, "regular"});
    original.sortBySubmitTime();

    std::ostringstream out;
    writeSwfTrace(original, out);
    std::istringstream in(out.str());
    auto parsed = parseSwfTrace(in).value();

    ASSERT_EQ(parsed.size(), original.size());
    for (size_t i = 0; i < parsed.size(); ++i) {
        EXPECT_DOUBLE_EQ(parsed[i].submitTime, original[i].submitTime);
        EXPECT_DOUBLE_EQ(parsed[i].waitSeconds, original[i].waitSeconds);
        EXPECT_EQ(parsed[i].procs, original[i].procs);
        EXPECT_DOUBLE_EQ(parsed[i].runSeconds, original[i].runSeconds);
    }
    // Queue names map to stable numbers: the two "regular" jobs share
    // a queue id distinct from "debug"'s.
    EXPECT_EQ(parsed[0].queue, parsed[2].queue);
    EXPECT_NE(parsed[0].queue, parsed[1].queue);
}

TEST(SwfRoundTrip, QueueNumbersFollowFirstAppearance)
{
    // "zebra" appears before "alpha"; first-appearance numbering must
    // win over alphabetical order, and the header must agree with the
    // data lines so the parser recovers the original names.
    Trace t("s", "m");
    t.add({1000.0, 1.0, 1, -1.0, "zebra"});
    t.add({2000.0, 2.0, 1, -1.0, "alpha"});
    t.sortBySubmitTime();

    std::ostringstream out;
    writeSwfTrace(t, out);
    const std::string text = out.str();
    EXPECT_NE(text.find("; Queue: 0 zebra"), std::string::npos);
    EXPECT_NE(text.find("; Queue: 1 alpha"), std::string::npos);

    std::istringstream in(text);
    auto parsed = parseSwfTrace(in).value();
    ASSERT_EQ(parsed.size(), 2u);
    EXPECT_EQ(parsed[0].queue, "zebra");
    EXPECT_EQ(parsed[1].queue, "alpha");
    EXPECT_EQ(parsed.site(), "s");
    EXPECT_EQ(parsed.machine(), "m");
}

TEST(SwfParse, QueueHeaderlessNumbersGetSyntheticNames)
{
    // Without "; Queue:" headers the number becomes "q<N>".
    std::istringstream in(
        "1 1000 50 600 16 -1 -1 16 3600 -1 1 4 2 -1 3 -1 -1 -1\n");
    auto t = parseSwfTrace(in).value();
    ASSERT_EQ(t.size(), 1u);
    EXPECT_EQ(t[0].queue, "q3");
}

TEST(SwfRoundTrip, PreservesMissingWaitAndStatus)
{
    Trace original("s", "m");
    JobRecord failed{1000.0, 5.0, 4, 30.0, "q"};
    failed.status = 0;
    original.add(failed);
    JobRecord nowait{2000.0, -1.0, 2, 60.0, "q"};
    original.add(nowait);
    original.sortBySubmitTime();

    std::ostringstream out;
    writeSwfTrace(original, out);

    SwfParseOptions keep;
    keep.skipMissingWait = false;
    std::istringstream in(out.str());
    auto parsed = parseSwfTrace(in, "<in>", keep).value();
    ASSERT_EQ(parsed.size(), 2u);
    EXPECT_EQ(parsed[0].status, 0);
    EXPECT_FALSE(parsed[1].hasWait());
    EXPECT_DOUBLE_EQ(parsed[1].waitSeconds, -1.0);
}

TEST(SwfRoundTrip, WriteParseWriteIsByteStable)
{
    Trace original("site", "machine");
    original.add({1000.5, 42.0, 8, 3600.0, "regular"});
    original.add({2000.0, -1.0, 64, -1.0, "debug"});
    JobRecord cancelled{3000.0, 0.0, 1, 10.0, "regular"};
    cancelled.status = 5;
    original.add(cancelled);
    original.sortBySubmitTime();

    SwfParseOptions keep;
    keep.skipMissingWait = false;

    std::ostringstream first;
    writeSwfTrace(original, first);

    std::istringstream in1(first.str());
    auto reparsed = parseSwfTrace(in1, "<in>", keep).value();
    std::ostringstream second;
    writeSwfTrace(reparsed, second);

    EXPECT_EQ(first.str(), second.str());
}

TEST(SwfWrite, EmitsHeaderComments)
{
    Trace t("SiteX", "MachineY");
    t.add({1.0, 2.0, 3, -1.0, "q"});
    std::ostringstream out;
    writeSwfTrace(t, out);
    const std::string text = out.str();
    EXPECT_NE(text.find("; Computer: MachineY"), std::string::npos);
    EXPECT_NE(text.find("; Installation: SiteX"), std::string::npos);
    EXPECT_NE(text.find("; Queue:"), std::string::npos);
}

TEST(SwfFile, SaveAndLoad)
{
    const std::string path = ::testing::TempDir() + "qdel_swf_test.swf";
    Trace original("s", "m");
    original.add({5.0, 7.0, 2, 100.0, "q"});
    ASSERT_TRUE(saveSwfTrace(original, path).ok());
    auto loaded = loadSwfTrace(path).value();
    ASSERT_EQ(loaded.size(), 1u);
    EXPECT_DOUBLE_EQ(loaded[0].waitSeconds, 7.0);
    std::remove(path.c_str());
}

TEST(SwfFile, MissingFileIsAnError)
{
    auto t = loadSwfTrace("/no/such/dir/file.swf");
    ASSERT_FALSE(t.ok());
    EXPECT_NE(t.error().reason.find("cannot open"), std::string::npos);
    EXPECT_EQ(t.error().file, "/no/such/dir/file.swf");
}

// ---------------------------------------------------------------------
// The buffered writer against printf with the SWF format string.

/** writeSwfTrace() spelled with one snprintf per line. */
std::string
printfSwf(const Trace &t)
{
    std::map<std::string, int> queue_ids;
    std::vector<std::string> queue_order;
    for (const auto &job : t) {
        if (queue_ids.emplace(job.queue,
                              static_cast<int>(queue_order.size()))
                .second)
            queue_order.push_back(job.queue);
    }
    std::ostringstream out;
    out << "; Computer: " << t.machine() << "\n";
    out << "; Installation: " << t.site() << "\n";
    out << "; Generated by the qdel BMBP reproduction library\n";
    for (size_t id = 0; id < queue_order.size(); ++id) {
        const std::string &queue = queue_order[id];
        out << "; Queue: " << id << " " << (queue.empty() ? "-" : queue)
            << "\n";
    }
    long long jobno = 0;
    for (const auto &job : t) {
        ++jobno;
        out << edge::printfString(
            "%lld %.0f %.0f %.0f %d -1 -1 %d -1 -1 %lld -1 -1 -1 "
            "%d -1 -1 -1\n",
            jobno, job.submitTime,
            job.hasWait() ? job.waitSeconds : -1.0,
            job.runSeconds < 0.0 ? -1.0 : job.runSeconds, job.procs,
            job.procs, job.status, queue_ids[job.queue]);
    }
    return out.str();
}

TEST(SwfWriterDifferential, EdgeValuesMatchPrintf)
{
    const Trace t = edge::edgeTrace();
    std::ostringstream out;
    writeSwfTrace(t, out);
    const std::string expected = printfSwf(t);
    // Several buffer fills, so the flush boundaries are crossed too.
    ASSERT_GT(expected.size(), 2 * TextWriter::kCapacity);
    ASSERT_EQ(out.str().size(), expected.size());
    EXPECT_TRUE(out.str() == expected);
}

TEST(SwfWriterDifferential, StreamedSynthesisMatchesPrintf)
{
    // The path qdel_synth --stream-out --format=swf takes: a streamed
    // profile, one queue numbered 0.
    const auto &profile = workload::findProfile("paragon", "q256s");
    workload::StreamSynthOptions options;
    options.jobCountOverride = 300;

    std::ostringstream expected;
    expected << "; Computer: " << profile.display << "\n";
    expected << "; Installation: " << profile.site << "\n";
    expected << "; Generated by the qdel BMBP reproduction library\n";
    expected << "; Queue: 0 " << profile.queue << "\n";
    workload::StreamingSynthesizer reference(profile, options);
    JobRecord job;
    long long jobno = 0;
    while (reference.next(&job)) {
        ++jobno;
        expected << edge::printfString(
            "%lld %.0f %.0f %.0f %d -1 -1 %d -1 -1 %lld -1 "
            "-1 -1 0 -1 -1 -1\n",
            jobno, job.submitTime, job.waitSeconds,
            job.runSeconds < 0.0 ? -1.0 : job.runSeconds, job.procs,
            job.procs, job.status);
    }
    ASSERT_EQ(jobno, 300);

    std::ostringstream out;
    {
        SwfWriter writer(out, profile.display, profile.site,
                         {profile.queue});
        workload::StreamingSynthesizer synth(profile, options);
        while (synth.next(&job))
            writer.write(job, 0);
    }
    EXPECT_EQ(out.str(), expected.str());
}

} // namespace
} // namespace trace
} // namespace qdel
