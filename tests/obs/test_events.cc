/**
 * @file
 * Tests for the bounded event ring and its serializers: overwrite
 * semantics with a dropped counter, JSON Lines vs Chrome trace_event
 * rendering, and the scoped-timer span helper.
 */

#include <atomic>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/events.hh"
#include "obs/metrics.hh"

namespace qdel {
namespace obs {
namespace {

/** Clean global event/enabled state around each test. */
class EventsTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        wasEnabled_ = enabled();
        events().clear();
    }

    void TearDown() override
    {
        setEnabled(wasEnabled_);
        events().clear();
    }

  private:
    bool wasEnabled_ = false;
};

TEST_F(EventsTest, EmitAndDrainPreservesFields)
{
    EventRing ring(64);
    ring.emit(EventType::BoundHit, 10.0, 3.0, "hit");
    ring.emit(EventType::CacheMiss);
    ring.emitSpan(EventType::Span, 1000, 500, "work");

    const auto drained = ring.drain();
    ASSERT_EQ(drained.size(), 3u);
    // drain() sorts by timestamp, so only check ordering generically:
    // the ring makes no promise about how the span's explicit ts
    // relates to the nowNanos() stamps of the other two.
    for (size_t i = 1; i < drained.size(); ++i)
        EXPECT_LE(drained[i - 1].tsNanos, drained[i].tsNanos);

    bool found_span = false;
    bool found_hit = false;
    for (const auto &event : drained) {
        if (event.type == EventType::Span) {
            found_span = true;
            EXPECT_EQ(event.tsNanos, 1000);
            EXPECT_EQ(event.durNanos, 500);
            EXPECT_STREQ(event.label, "work");
        }
        if (event.type == EventType::BoundHit) {
            found_hit = true;
            EXPECT_EQ(event.a, 10.0);
            EXPECT_EQ(event.b, 3.0);
        }
    }
    EXPECT_TRUE(found_span);
    EXPECT_TRUE(found_hit);
    EXPECT_EQ(ring.dropped(), 0u);
}

TEST_F(EventsTest, RingOverwritesOldestAndCountsDropped)
{
    // Capacity kShards means one slot per shard; a single thread
    // always lands on the same shard, so every emit past the first
    // overwrites and bumps the dropped counter.
    EventRing ring(kShards);
    for (int i = 0; i < 5; ++i)
        ring.emit(EventType::WalAppend, static_cast<double>(i));
    const auto drained = ring.drain();
    ASSERT_EQ(drained.size(), 1u);
    EXPECT_EQ(drained[0].a, 4.0);  // newest survives
    EXPECT_EQ(ring.dropped(), 4u);

    ring.clear();
    EXPECT_TRUE(ring.drain().empty());
    EXPECT_EQ(ring.dropped(), 0u);
}

TEST_F(EventsTest, ConcurrentSpanEmissionMidDrainKeepsAccounting)
{
    // Reactor threads emit spans into a small ring while another
    // thread drains repeatedly (the /debug + --events-out pattern).
    // Two invariants survive the races: drain() never observes a torn
    // event (label pointers stay valid string literals, tids stay in
    // range), and once the writers stop, every emission is accounted
    // for as either resident or dropped.
    constexpr int kThreads = 6;
    constexpr int kEmits = 3000;
    EventRing ring(kShards * 8);  // 8 slots per shard: wraps constantly.

    std::atomic<bool> stop{false};
    std::thread drainer([&] {
        while (!stop.load(std::memory_order_relaxed)) {
            for (const auto &event : ring.drain()) {
                ASSERT_TRUE(event.type == EventType::Span ||
                            event.type == EventType::BoundHit);
                ASSERT_NE(event.label, nullptr);
                if (event.type == EventType::Span)
                    ASSERT_STREQ(event.label, "mid_flush_span");
            }
        }
    });

    std::vector<std::thread> emitters;
    for (int t = 0; t < kThreads; ++t) {
        emitters.emplace_back([&ring, t] {
            for (int i = 0; i < kEmits; ++i) {
                if (i % 2 == 0) {
                    ring.emitSpan(EventType::Span, i * 1000, 500,
                                  "mid_flush_span",
                                  static_cast<uint64_t>(t) << 32 | i);
                } else {
                    ring.emit(EventType::BoundHit,
                              static_cast<double>(t),
                              static_cast<double>(i), "hit");
                }
            }
        });
    }
    for (auto &thread : emitters)
        thread.join();
    stop.store(true, std::memory_order_relaxed);
    drainer.join();

    // Overwrite accounting: resident + dropped == emitted, exactly.
    const auto drained = ring.drain();
    EXPECT_EQ(drained.size() + ring.dropped(),
              static_cast<uint64_t>(kThreads) * kEmits);
    EXPECT_LE(drained.size(), static_cast<size_t>(kShards) * 8);
    EXPECT_GT(ring.dropped(), 0u);
}

TEST_F(EventsTest, TraceIdRendersAsPaddedHexOnlyWhenSet)
{
    EventRing ring(64);
    ring.emit(EventType::BoundMiss, 9.0, 11.0, "scored",
              0x00000000deadbeefULL);
    ring.emit(EventType::CacheHit);  // untraced
    const std::string text = renderJsonLines(ring.drain());

    // Traced events carry the id as a 16-digit zero-padded hex string
    // (a JSON string, not a number: u64 does not fit in a double).
    EXPECT_NE(text.find("\"trace\":\"00000000deadbeef\""),
              std::string::npos);
    // The untraced line has no trace key at all.
    const size_t cache_line = text.find("\"name\":\"cache_hit\"");
    ASSERT_NE(cache_line, std::string::npos);
    const std::string rest = text.substr(cache_line);
    const std::string line = rest.substr(0, rest.find('\n'));
    EXPECT_EQ(line.find("\"trace\""), std::string::npos);
}

TEST_F(EventsTest, EventTypeNamesAreStable)
{
    EXPECT_STREQ(eventTypeName(EventType::RareEventFired),
                 "rare_event_fired");
    EXPECT_STREQ(eventTypeName(EventType::BoundMiss), "bound_miss");
    EXPECT_STREQ(eventTypeName(EventType::CheckpointWritten),
                 "checkpoint_written");
    EXPECT_STREQ(eventTypeName(EventType::CacheHit), "cache_hit");
}

TEST_F(EventsTest, JsonLinesOneObjectPerLine)
{
    EventRing ring(64);
    ring.emit(EventType::BoundHit, 1.0, 2.0, "x");
    ring.emit(EventType::BoundMiss);
    const std::string text = renderJsonLines(ring.drain());

    size_t lines = 0;
    size_t pos = 0;
    while ((pos = text.find('\n', pos)) != std::string::npos) {
        ++lines;
        ++pos;
    }
    EXPECT_EQ(lines, 2u);
    EXPECT_EQ(text.front(), '{');
    EXPECT_NE(text.find("\"name\":\"bound_hit\""), std::string::npos);
    EXPECT_NE(text.find("\"label\":\"x\""), std::string::npos);
    EXPECT_NE(text.find("\"a\":1"), std::string::npos);
}

TEST_F(EventsTest, ChromeTraceFormat)
{
    EventRing ring(64);
    ring.emit(EventType::RareEventFired, 3.0, 100.0, "bmbp");
    ring.emitSpan(EventType::Span, 2'000'000, 1'500'000, "refit");
    const std::string text = renderChromeTrace(ring.drain());

    EXPECT_EQ(text.rfind("{\"traceEvents\":[", 0), 0u);
    EXPECT_NE(text.find("\"displayTimeUnit\":\"ms\""),
              std::string::npos);
    // The instant carries a scope, the span a microsecond duration.
    EXPECT_NE(text.find("\"ph\":\"i\""), std::string::npos);
    EXPECT_NE(text.find("\"s\":\"t\""), std::string::npos);
    EXPECT_NE(text.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(text.find("\"dur\":1500.000"), std::string::npos);
    EXPECT_NE(text.find("\"ts\":2000.000"), std::string::npos);
}

TEST_F(EventsTest, NonFinitePayloadsRenderAsNull)
{
    // An infinite bound (too little history) is a legitimate payload;
    // JSON has no inf/nan literal, so both exports must say null.
    EventRing ring(64);
    ring.emit(EventType::PredictionIssued,
              std::numeric_limits<double>::infinity(),
              std::numeric_limits<double>::quiet_NaN(), "bmbp");
    const auto drained = ring.drain();
    EXPECT_NE(renderJsonLines(drained).find("\"a\":null,\"b\":null"),
              std::string::npos);
    EXPECT_NE(renderChromeTrace(drained).find("\"a\":null,\"b\":null"),
              std::string::npos);
}

TEST_F(EventsTest, ScopedTimerObservesHistogramAndEmitsSpan)
{
    setEnabled(true);
    Histogram histogram("test_span_seconds", "", {1.0});
    {
        ScopedTimer timer(&histogram, EventType::Span, "scoped");
    }
    EXPECT_EQ(histogram.count(), 1u);

    bool found = false;
    for (const auto &event : events().drain()) {
        if (event.type == EventType::Span && event.label &&
            std::string(event.label) == "scoped") {
            found = true;
            EXPECT_GE(event.durNanos, 0);
        }
    }
    EXPECT_TRUE(found);
}

TEST_F(EventsTest, ScopedTimerWithNullHistogramIsANoOp)
{
    setEnabled(true);
    {
        ScopedTimer timer(nullptr, EventType::Span, "ignored");
    }
    for (const auto &event : events().drain())
        EXPECT_STRNE(event.label, "ignored");
}

TEST_F(EventsTest, WriteEventsFilePicksFormatByExtension)
{
    events().emit(EventType::CacheHit, 5.0);
    const std::string dir = ::testing::TempDir();

    std::string error;
    const std::string chrome_path = dir + "qdel_events_test.json";
    ASSERT_TRUE(writeEventsFile(chrome_path, &error)) << error;
    std::ifstream chrome(chrome_path);
    std::string chrome_text((std::istreambuf_iterator<char>(chrome)),
                            std::istreambuf_iterator<char>());
    EXPECT_EQ(chrome_text.rfind("{\"traceEvents\":[", 0), 0u);

    const std::string jsonl_path = dir + "qdel_events_test.jsonl";
    ASSERT_TRUE(writeEventsFile(jsonl_path, &error)) << error;
    std::ifstream jsonl(jsonl_path);
    std::string jsonl_text((std::istreambuf_iterator<char>(jsonl)),
                           std::istreambuf_iterator<char>());
    EXPECT_EQ(jsonl_text.rfind("{\"name\":", 0), 0u);

    EXPECT_FALSE(writeEventsFile(dir + "no/such/dir/e.json", &error));
    EXPECT_FALSE(error.empty());
}

} // namespace
} // namespace obs
} // namespace qdel
