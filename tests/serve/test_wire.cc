/**
 * @file
 * Wire-schema contract tests: bit-exact body codecs (including NaN
 * payloads in event times), the length-prefixed framing and its
 * resynchronization rules, the paper proc buckets, and the SWF job ->
 * event expansion.
 */

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iterator>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "persist/state_codec.hh"
#include "serve/wire.hh"
#include "trace/job_record.hh"

namespace qdel {
namespace serve {
namespace {

TEST(WireCodec, EventRoundTripsBitExactly)
{
    JobEvent event;
    event.kind = EventKind::Start;
    event.jobId = 0xFEEDFACE01234567ull;
    event.time = -0.0;
    event.machine = "datastar";
    event.queue = "queue with spaces\x1f";
    event.procs = -3;

    auto decoded = decodeEvent(encodeEvent(event));
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded.value().kind, EventKind::Start);
    EXPECT_EQ(decoded.value().jobId, event.jobId);
    EXPECT_TRUE(std::signbit(decoded.value().time));
    EXPECT_EQ(decoded.value().machine, event.machine);
    EXPECT_EQ(decoded.value().queue, event.queue);
    EXPECT_EQ(decoded.value().procs, -3);
}

TEST(WireCodec, EventNaNTimeSurvivesTheWire)
{
    // A NaN submit time must arrive as NaN so the registry's NaN-safe
    // wait check (`!(wait >= 0)`) sees it and rejects deterministically
    // — the WAL replay path depends on the byte surviving.
    JobEvent event;
    event.time = std::numeric_limits<double>::quiet_NaN();
    auto decoded = decodeEvent(encodeEvent(event));
    ASSERT_TRUE(decoded.ok());
    EXPECT_TRUE(std::isnan(decoded.value().time));
}

TEST(WireCodec, EventDecodeRejectsTruncationAndTrailingBytes)
{
    JobEvent event;
    event.machine = "m";
    const std::string body = encodeEvent(event);
    // v2 appended the clientId + seq idempotency tail; a body cut at
    // exactly the v1 boundary is a pre-upgrade WAL blob and must still
    // decode (with the fields defaulted) — every other cut must fail.
    persist::StateWriter tail;
    tail.str("");
    tail.u64(0);
    ASSERT_GT(body.size(), tail.bytes().size());
    const size_t v1_size = body.size() - tail.bytes().size();
    for (size_t keep = 0; keep < body.size(); ++keep) {
        auto decoded = decodeEvent(body.substr(0, keep));
        if (keep == v1_size) {
            ASSERT_TRUE(decoded.ok()) << "v1 boundary must decode";
            EXPECT_TRUE(decoded.value().clientId.empty());
            EXPECT_EQ(decoded.value().seq, 0u);
        } else {
            EXPECT_FALSE(decoded.ok()) << "kept " << keep;
        }
    }
    EXPECT_FALSE(decodeEvent(body + "x").ok());
    EXPECT_FALSE(decodeEvent(std::string(1, '\x09') + body.substr(1)).ok())
        << "unknown event kind must be rejected";
}

TEST(WireCodec, QueryRoundTrips)
{
    BoundQuery query;
    query.machine = "lanl";
    query.queue = "chammpq";
    query.procs = 64;
    query.quantile = 0.75;
    query.upper = false;
    auto decoded = decodeQuery(encodeQuery(query));
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded.value().machine, "lanl");
    EXPECT_EQ(decoded.value().queue, "chammpq");
    EXPECT_EQ(decoded.value().procs, 64);
    EXPECT_EQ(decoded.value().quantile, 0.75);
    EXPECT_FALSE(decoded.value().upper);
}

TEST(WireCodec, AnswerRoundTripsInfinity)
{
    BoundAnswer answer;
    answer.known = true;
    answer.upper = std::numeric_limits<double>::infinity();
    answer.lower = 12.5;
    answer.quantile = 0.95;
    answer.confidence = 0.95;
    answer.historySize = 321;
    answer.observations = 1000;
    answer.version = 7;
    // Through the server's encoder: an Ok frame carrying the answer.
    std::string framed;
    appendAnswerFrame(framed, answer);
    std::string_view payload;
    size_t consumed = 0;
    auto complete = unframe(framed, &payload, &consumed);
    ASSERT_TRUE(complete.ok());
    ASSERT_TRUE(complete.value());
    EXPECT_EQ(consumed, framed.size());
    ASSERT_EQ(static_cast<uint8_t>(payload[0]),
              static_cast<uint8_t>(Status::Ok));
    auto decoded = decodeAnswer(payload.substr(1));
    ASSERT_TRUE(decoded.ok());
    EXPECT_TRUE(decoded.value().known);
    EXPECT_TRUE(std::isinf(decoded.value().upper));
    EXPECT_EQ(decoded.value().lower, 12.5);
    EXPECT_EQ(decoded.value().historySize, 321u);
    EXPECT_EQ(decoded.value().observations, 1000u);
    EXPECT_EQ(decoded.value().version, 7u);
}

/** An event body as encodeEvent() lays it out, but with an arbitrary
 *  i64 in the procs field. */
std::string
eventBodyWithProcs(int64_t procs)
{
    persist::StateWriter writer;
    writer.u8(static_cast<uint8_t>(EventKind::Submit));
    writer.u64(1);
    writer.f64(100.0);
    writer.i64(procs);
    writer.str("m");
    writer.str("q");
    return writer.take();
}

/** The same for a query body. */
std::string
queryBodyWithProcs(int64_t procs)
{
    persist::StateWriter writer;
    writer.str("m");
    writer.str("q");
    writer.i64(procs);
    writer.f64(0.95);
    writer.u8(1);
    return writer.take();
}

TEST(WireCodec, ProcsOutsideIntRangeIsRefusedNotWrapped)
{
    // 2^32 + 64 would wrap to 64 (bucket 17-64) and -2^40 to 0; the
    // HTTP API answers 400 for both, so the binary decoders refuse too.
    const int64_t wraps_to_64 = (int64_t{1} << 32) + 64;
    const int64_t wraps_to_0 = -(int64_t{1} << 40);
    for (int64_t procs : {wraps_to_64, wraps_to_0}) {
        SCOPED_TRACE(procs);
        auto event = decodeEvent(eventBodyWithProcs(procs));
        ASSERT_FALSE(event.ok());
        EXPECT_EQ(event.error().field, "event.procs");
        auto query = decodeQuery(queryBodyWithProcs(procs));
        ASSERT_FALSE(query.ok());
        EXPECT_EQ(query.error().field, "query.procs");
    }
    // The int range itself still decodes, ends included.
    for (int64_t procs : {int64_t{std::numeric_limits<int>::min()},
                          int64_t{-1}, int64_t{64},
                          int64_t{std::numeric_limits<int>::max()}}) {
        SCOPED_TRACE(procs);
        auto event = decodeEvent(eventBodyWithProcs(procs));
        ASSERT_TRUE(event.ok());
        EXPECT_EQ(event.value().procs, procs);
        auto query = decodeQuery(queryBodyWithProcs(procs));
        ASSERT_TRUE(query.ok());
        EXPECT_EQ(query.value().procs, procs);
    }
}

TEST(WireCodec, StatsRoundTrips)
{
    ServeStats stats;
    stats.processedPerShard = {0, 17, 0, 9999999};
    stats.entries = 12;
    auto decoded = decodeStats(encodeStats(stats));
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded.value().processedPerShard,
              stats.processedPerShard);
    EXPECT_EQ(decoded.value().entries, 12u);
}

TEST(WireFraming, UnframeNeedsMoreUntilComplete)
{
    const std::string framed = frame("hello");
    std::string_view payload;
    size_t consumed = 0;
    for (size_t keep = 0; keep < framed.size(); ++keep) {
        auto partial =
            unframe(std::string_view(framed).substr(0, keep), &payload,
                    &consumed);
        ASSERT_TRUE(partial.ok()) << "kept " << keep;
        EXPECT_FALSE(partial.value()) << "kept " << keep;
    }
    auto complete = unframe(framed, &payload, &consumed);
    ASSERT_TRUE(complete.ok());
    ASSERT_TRUE(complete.value());
    EXPECT_EQ(payload, "hello");
    EXPECT_EQ(consumed, framed.size());
}

TEST(WireFraming, UnframeLeavesFollowingFrameInPlace)
{
    const std::string two = frame("one") + frame("two-longer");
    std::string_view payload;
    size_t consumed = 0;
    auto first = unframe(two, &payload, &consumed);
    ASSERT_TRUE(first.ok());
    ASSERT_TRUE(first.value());
    EXPECT_EQ(payload, "one");
    auto second = unframe(std::string_view(two).substr(consumed),
                          &payload, &consumed);
    ASSERT_TRUE(second.ok());
    ASSERT_TRUE(second.value());
    EXPECT_EQ(payload, "two-longer");
}

TEST(WireFraming, OversizeLengthIsAFatalParseError)
{
    // A corrupt length cannot be resynchronized; the connection must
    // be torn down rather than waiting on phantom bytes.
    std::string corrupt(4, '\0');
    const uint32_t huge = kMaxFrameBytes + 1;
    std::memcpy(corrupt.data(), &huge, 4);
    std::string_view payload;
    size_t consumed = 0;
    EXPECT_FALSE(unframe(corrupt, &payload, &consumed).ok());
}

TEST(WireFraming, RequestAndResponseFramesCarryTheirTag)
{
    const std::string request = frameRequest(Opcode::Ping, "");
    ASSERT_EQ(request.size(), 5u);
    EXPECT_EQ(static_cast<uint8_t>(request[4]),
              static_cast<uint8_t>(Opcode::Ping));

    // Both response frames in one buffer, as the reactor batches them.
    std::string out;
    appendOkFrame(out, "body");
    appendErrorFrame(out, "boom");
    std::string_view payload;
    size_t consumed = 0;
    auto ok = unframe(out, &payload, &consumed);
    ASSERT_TRUE(ok.ok());
    ASSERT_TRUE(ok.value());
    EXPECT_EQ(static_cast<uint8_t>(out[4]),
              static_cast<uint8_t>(Status::Ok));
    EXPECT_EQ(payload.substr(1), "body");

    const std::string_view rest = std::string_view(out).substr(consumed);
    auto error = unframe(rest, &payload, &consumed);
    ASSERT_TRUE(error.ok());
    ASSERT_TRUE(error.value());
    EXPECT_EQ(consumed, rest.size());
    EXPECT_EQ(static_cast<uint8_t>(rest[4]),
              static_cast<uint8_t>(Status::Error));
    persist::StateReader message(payload.substr(1), "error-response");
    EXPECT_EQ(message.str(), "boom");
    EXPECT_TRUE(message.expectEnd().ok());
}

TEST(WireBuckets, PaperProcRangesAndClamping)
{
    // Table 5 bins: 1-4 / 5-16 / 17-64 / 65+.
    EXPECT_EQ(trace::procBucketFor(1), trace::procBucketFor(4));
    EXPECT_EQ(trace::procBucketFor(5), trace::procBucketFor(16));
    EXPECT_EQ(trace::procBucketFor(17), trace::procBucketFor(64));
    EXPECT_EQ(trace::procBucketFor(65), trace::procBucketFor(1 << 20));
    EXPECT_NE(trace::procBucketFor(4), trace::procBucketFor(5));
    EXPECT_NE(trace::procBucketFor(16), trace::procBucketFor(17));
    EXPECT_NE(trace::procBucketFor(64), trace::procBucketFor(65));
    // Degenerate proc counts clamp into the first bin.
    EXPECT_EQ(trace::procBucketFor(0), trace::procBucketFor(1));
    EXPECT_EQ(trace::procBucketFor(-7), trace::procBucketFor(1));

    EXPECT_EQ(procBucketLabel(trace::procBucketFor(1)), "1-4");
    EXPECT_EQ(procBucketLabel(trace::procBucketFor(100)), "65+");
}

TEST(WireEvents, EventsFromJobsExpandsAndOrders)
{
    std::vector<trace::JobRecord> jobs;
    trace::JobRecord a;
    a.submitTime = 100.0;
    a.waitSeconds = 50.0;  // starts at 150
    a.procs = 4;
    a.queue = "q";
    jobs.push_back(a);
    trace::JobRecord b;
    b.submitTime = 120.0;
    b.waitSeconds = 0.0;  // starts at 120: same instant as its submit
    b.procs = 32;
    b.queue = "q";
    jobs.push_back(b);
    trace::JobRecord c;  // never started: submit only
    c.submitTime = 130.0;
    c.waitSeconds = -1.0;
    c.procs = 8;
    c.queue = "q";
    jobs.push_back(c);

    const auto events = eventsFromJobs(jobs, "m");
    ASSERT_EQ(events.size(), 5u);
    for (const auto &event : events)
        EXPECT_EQ(event.machine, "m");
    // Time order with Submit before Start at equal times.
    EXPECT_EQ(events[0].kind, EventKind::Submit);  // a @100
    EXPECT_EQ(events[0].jobId, 1u);
    EXPECT_EQ(events[1].kind, EventKind::Submit);  // b @120
    EXPECT_EQ(events[1].jobId, 2u);
    EXPECT_EQ(events[2].kind, EventKind::Start);  // b @120
    EXPECT_EQ(events[2].jobId, 2u);
    EXPECT_EQ(events[3].kind, EventKind::Submit);  // c @130
    EXPECT_EQ(events[3].jobId, 3u);
    EXPECT_EQ(events[4].kind, EventKind::Start);  // a @150
    EXPECT_EQ(events[4].jobId, 1u);
    EXPECT_EQ(events[4].time, 150.0);
}

/** The whole-event stable sort eventsFromJobs must reproduce. */
std::vector<JobEvent>
eventsBySortingWholeEvents(const std::vector<trace::JobRecord> &jobs,
                           const std::string &machine)
{
    std::vector<JobEvent> events;
    for (size_t i = 0; i < jobs.size(); ++i) {
        const trace::JobRecord &job = jobs[i];
        JobEvent submit;
        submit.kind = EventKind::Submit;
        submit.jobId = i + 1;
        submit.time = job.submitTime;
        submit.machine = machine;
        submit.queue = job.queue;
        submit.procs = job.procs;
        events.push_back(submit);
        if (!job.hasWait())
            continue;
        JobEvent start = submit;
        start.kind = EventKind::Start;
        start.time = job.startTime();
        events.push_back(start);
    }
    std::stable_sort(events.begin(), events.end(),
                     [](const JobEvent &a, const JobEvent &b) {
                         if (a.time != b.time)
                             return a.time < b.time;
                         if (a.jobId != b.jobId)
                             return a.jobId < b.jobId;
                         return static_cast<uint8_t>(a.kind) <
                                static_cast<uint8_t>(b.kind);
                     });
    return events;
}

uint64_t
timeBits(double time)
{
    uint64_t bits = 0;
    std::memcpy(&bits, &time, sizeof(bits));
    return bits;
}

TEST(WireEvents, EventsFromJobsMatchesFullEventSort)
{
    // Few distinct times, so submits and starts tie often; -0.0 and 0.0
    // compare equal but must keep their own sign in the output.
    const double kTimes[] = {-0.0, 0.0, 1.0, 2.0, 2.0, 3.5, 10.0, 1e9};
    const double kWaits[] = {-1.0, 0.0, -0.0, 1.0, 2.0, 0.5, 7.0};
    const std::string kQueues[] = {
        "", "q", "normal", "a queue name longer than the SSO buffer",
        "another long queue name, with spaces"};
    std::mt19937 rng(28);
    std::uniform_int_distribution<size_t> time(0, std::size(kTimes) - 1);
    std::uniform_int_distribution<size_t> wait(0, std::size(kWaits) - 1);
    std::uniform_int_distribution<size_t> queue(0, std::size(kQueues) - 1);
    std::uniform_int_distribution<int> procs(1, 512);
    std::uniform_int_distribution<int> coin(0, 2);
    for (size_t trial = 0; trial < 400; ++trial) {
        SCOPED_TRACE(trial);
        std::vector<trace::JobRecord> jobs(trial % 40);
        for (size_t i = 0; i < jobs.size(); ++i) {
            trace::JobRecord &job = jobs[i];
            // Mostly ascending submits with ties, some out of order.
            job.submitTime = coin(rng) == 0
                                 ? kTimes[time(rng)]
                                 : static_cast<double>(i / 3);
            job.waitSeconds = kWaits[wait(rng)];
            job.procs = procs(rng);
            job.queue = kQueues[queue(rng)];
        }
        const std::string machine =
            trial % 2 ? "m" : "a machine name longer than the SSO buffer";
        const auto expected = eventsBySortingWholeEvents(jobs, machine);
        const auto events = eventsFromJobs(jobs, machine);
        ASSERT_EQ(events.size(), expected.size());
        for (size_t i = 0; i < events.size(); ++i) {
            SCOPED_TRACE(i);
            EXPECT_EQ(events[i].kind, expected[i].kind);
            EXPECT_EQ(events[i].jobId, expected[i].jobId);
            EXPECT_EQ(timeBits(events[i].time), timeBits(expected[i].time));
            EXPECT_EQ(events[i].machine, expected[i].machine);
            EXPECT_EQ(events[i].queue, expected[i].queue);
            EXPECT_EQ(events[i].procs, expected[i].procs);
            EXPECT_EQ(events[i].clientId, expected[i].clientId);
            EXPECT_EQ(events[i].seq, expected[i].seq);
            EXPECT_EQ(events[i].traceId, expected[i].traceId);
        }
    }
}

TEST(WireTrace, EventTraceTailIsWireOnlyAndOptional)
{
    JobEvent event;
    event.jobId = 42;
    event.machine = "m";
    event.queue = "q";
    event.traceId = 0xABCDEF0011223344ull;

    // encodeEvent() is the WAL blob layout: it must be byte-identical
    // whether or not the event is traced, or traced ingests would
    // change shard digests.
    JobEvent untraced = event;
    untraced.traceId = 0;
    EXPECT_EQ(encodeEvent(event), encodeEvent(untraced));

    // encodeEventWire() carries the tail; decode round-trips it.
    const std::string wire = encodeEventWire(event);
    EXPECT_EQ(wire.size(), encodeEvent(event).size() + 8);
    auto decoded = decodeEvent(wire);
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded.value().traceId, event.traceId);

    // A v2 body (no tail) decodes as untraced — old clients keep
    // working against the v3 server unchanged.
    auto v2 = decodeEvent(encodeEvent(event));
    ASSERT_TRUE(v2.ok());
    EXPECT_EQ(v2.value().traceId, 0u);

    // Untraced events get no tail even from the wire encoder.
    EXPECT_EQ(encodeEventWire(untraced), encodeEvent(untraced));
}

TEST(WireTrace, QueryTraceTailRoundTripsAndScratchReuseResets)
{
    BoundQuery query;
    query.machine = "m";
    query.queue = "q";
    query.procs = 4;
    query.quantile = 0.95;
    query.traceId = 0x1122334455667788ull;

    BoundQuery slot;
    ASSERT_TRUE(decodeQueryInto(encodeQuery(query), &slot).ok());
    EXPECT_EQ(slot.traceId, query.traceId);

    // The reactor reuses batch slots: decoding an untraced (v2) query
    // into a slot that previously held a traced one must reset the id,
    // or a stale trace would be attributed to a stranger's request.
    BoundQuery untraced = query;
    untraced.traceId = 0;
    ASSERT_TRUE(decodeQueryInto(encodeQuery(untraced), &slot).ok());
    EXPECT_EQ(slot.traceId, 0u);
}

} // namespace
} // namespace serve
} // namespace qdel
