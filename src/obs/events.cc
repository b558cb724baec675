/**
 * @file
 * Implementation of the event ring and its serializers.
 */

#include "obs/events.hh"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <fstream>

#include "util/json.hh"

namespace qdel {
namespace obs {

namespace {

/**
 * trace_event "ph" phase for an event: completed spans carry a
 * duration ("X"), everything else is an instant ("i").
 */
const char *
eventPhase(const Event &event)
{
    return event.durNanos > 0 ? "X" : "i";
}

/** Chrome trace_event timestamps are microseconds; keep sub-us
 *  resolution with a fractional part. */
std::string
micros(int64_t nanos)
{
    return jsonNumber(static_cast<double>(nanos) / 1000.0, "%.3f");
}

/**
 * One event as a trace_event JSON object (no trailing newline).
 * Payloads keep 12 significant digits; an infinite bound (no history
 * yet) or a NaN payload is null.
 */
void
writeEventObject(JsonWriter &w, const Event &event)
{
    w.beginObject()
        .field("name", eventTypeName(event.type))
        .field("cat", "qdel")
        .field("ph", eventPhase(event))
        .field("pid", 1)
        .field("tid", event.tid)
        .key("ts")
        .raw(micros(event.tsNanos));
    if (event.durNanos > 0) {
        w.key("dur").raw(micros(event.durNanos));
    } else {
        // Instant scope: "t" (thread) keeps the marker on its track.
        w.field("s", "t");
    }
    w.key("args").beginObject();
    if (event.label && event.label[0] != '\0')
        w.field("label", event.label);
    if (event.a != 0.0 || event.b != 0.0) {
        w.key("a").raw(jsonNumber(event.a, "%.12g"));
        w.key("b").raw(jsonNumber(event.b, "%.12g"));
    }
    if (event.trace != 0) {
        // Hex string, zero-padded to 16 digits, matching the
        // X-Qdel-Trace header format so grep finds it verbatim.
        char hex[17];
        std::snprintf(hex, sizeof(hex), "%016" PRIx64, event.trace);
        w.field("trace", hex);
    }
    w.endObject().endObject();
}

} // namespace

const char *
eventTypeName(EventType type)
{
    switch (type) {
      case EventType::PredictionIssued:  return "prediction_issued";
      case EventType::BoundHit:          return "bound_hit";
      case EventType::BoundMiss:         return "bound_miss";
      case EventType::RareRunStarted:    return "rare_run_started";
      case EventType::RareEventFired:    return "rare_event_fired";
      case EventType::HistoryTrimmed:    return "history_trimmed";
      case EventType::CheckpointWritten: return "checkpoint_written";
      case EventType::WalAppend:         return "wal_append";
      case EventType::RecoveryRung:      return "recovery_rung";
      case EventType::CacheHit:          return "cache_hit";
      case EventType::CacheStale:        return "cache_stale";
      case EventType::CacheCorrupt:      return "cache_corrupt";
      case EventType::CacheMiss:         return "cache_miss";
      case EventType::ParseDone:         return "parse_done";
      case EventType::Span:              return "span";
    }
    return "unknown";
}

int64_t
nowNanos()
{
    using Clock = std::chrono::steady_clock;
    static const Clock::time_point start = Clock::now();
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - start)
        .count();
}

EventRing::EventRing(size_t capacity)
    : shardCapacity_(std::max<size_t>(1, capacity / kShards))
{
}

void
EventRing::push(Shard &shard, const Event &event)
{
    std::lock_guard<std::mutex> lock(shard.mutex);
    if (shard.ring.size() < shardCapacity_) {
        shard.ring.push_back(event);
        return;
    }
    shard.ring[shard.next] = event;
    shard.next = (shard.next + 1) % shardCapacity_;
    ++shard.dropped;
}

void
EventRing::emit(EventType type, double a, double b, const char *label,
                uint64_t trace)
{
    Event event;
    event.type = type;
    event.tid = static_cast<uint32_t>(detail::threadIndex());
    event.tsNanos = nowNanos();
    event.a = a;
    event.b = b;
    event.trace = trace;
    event.label = label;
    push(shards_[detail::threadShard()], event);
}

void
EventRing::emitSpan(EventType type, int64_t tsNanos, int64_t durNanos,
                    const char *label, uint64_t trace)
{
    Event event;
    event.type = type;
    event.tid = static_cast<uint32_t>(detail::threadIndex());
    event.tsNanos = tsNanos;
    event.durNanos = durNanos;
    event.trace = trace;
    event.label = label;
    push(shards_[detail::threadShard()], event);
}

std::vector<Event>
EventRing::drain() const
{
    std::vector<Event> merged;
    for (const Shard &shard : shards_) {
        std::lock_guard<std::mutex> lock(shard.mutex);
        merged.insert(merged.end(), shard.ring.begin(),
                      shard.ring.end());
    }
    std::stable_sort(merged.begin(), merged.end(),
                     [](const Event &x, const Event &y) {
                         return x.tsNanos < y.tsNanos;
                     });
    return merged;
}

uint64_t
EventRing::dropped() const
{
    uint64_t total = 0;
    for (const Shard &shard : shards_) {
        std::lock_guard<std::mutex> lock(shard.mutex);
        total += shard.dropped;
    }
    return total;
}

void
EventRing::clear()
{
    for (Shard &shard : shards_) {
        std::lock_guard<std::mutex> lock(shard.mutex);
        shard.ring.clear();
        shard.next = 0;
        shard.dropped = 0;
    }
}

EventRing &
events()
{
    // Intentionally immortal, like registry(): reachable from atexit
    // handlers and late-exiting worker threads.
    static EventRing *instance = new EventRing;
    return *instance;
}

std::string
renderJsonLines(const std::vector<Event> &events)
{
    std::string out;
    for (const Event &event : events) {
        JsonWriter w(out);
        writeEventObject(w, event);
        out += '\n';
    }
    return out;
}

std::string
renderChromeTrace(const std::vector<Event> &events)
{
    // One event per line: each element is its object text after a
    // newline, and the closing bracket gets a line of its own.
    std::string out;
    JsonWriter w(out);
    w.beginObject().key("traceEvents").beginArray();
    std::string line;
    for (const Event &event : events) {
        line.assign(1, '\n');
        JsonWriter element(line);
        writeEventObject(element, event);
        w.raw(line);
    }
    out += '\n';
    w.endArray().field("displayTimeUnit", "ms").endObject();
    out += '\n';
    return out;
}

bool
writeEventsFile(const std::string &path, std::string *error)
{
    const std::vector<Event> drained = events().drain();
    const bool jsonl =
        path.size() >= 6 &&
        path.compare(path.size() - 6, 6, ".jsonl") == 0;
    std::ofstream out(path);
    if (!out) {
        if (error)
            *error = "cannot open '" + path + "' for writing";
        return false;
    }
    out << (jsonl ? renderJsonLines(drained)
                  : renderChromeTrace(drained));
    out.flush();
    if (!out) {
        if (error)
            *error = "write to '" + path + "' failed";
        return false;
    }
    return true;
}

void
ScopedTimer::finish()
{
    const int64_t durNanos = nowNanos() - startNanos_;
    histogram_->observe(static_cast<double>(durNanos) * 1e-9);
    if (enabled())
        events().emitSpan(type_, startNanos_, durNanos, label_,
                          trace_);
}

} // namespace obs
} // namespace qdel
