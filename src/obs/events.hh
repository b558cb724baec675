/**
 * @file
 * Structured event trace: a bounded, thread-safe ring buffer of typed
 * events recording *what happened when* (a prediction issued, a bound
 * missed, a checkpoint written, a cache probed...), complementing the
 * metrics registry which records only *how often / how long*.
 *
 * The ring is sharded like the metrics: each shard has its own mutex
 * and fixed-capacity ring, and a thread always appends to its own
 * shard, so concurrent emitters contend only with same-shard threads
 * and the structure stays data-race-free under TSan. When a shard
 * wraps, its oldest events are overwritten and a dropped counter
 * remembers how many; drain() merges all shards back into timestamp
 * order.
 *
 * Serialization targets:
 *  - JSON Lines (one event object per line) when the output path ends
 *    in ".jsonl";
 *  - Chrome trace_event JSON ({"traceEvents": [...]}) otherwise,
 *    loadable in chrome://tracing and https://ui.perfetto.dev: spans
 *    become "ph":"X" complete events with a duration, instants become
 *    "ph":"i".
 */

#ifndef QDEL_OBS_EVENTS_HH
#define QDEL_OBS_EVENTS_HH

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.hh"

namespace qdel {
namespace obs {

/** Everything the pipelines can announce. */
enum class EventType : uint8_t {
    PredictionIssued,  //!< upperBound() evaluated for a scored job.
    BoundHit,          //!< observed wait <= predicted bound.
    BoundMiss,         //!< observed wait exceeded the bound.
    RareRunStarted,    //!< first exceedance of a potential rare event.
    RareEventFired,    //!< exceedance run hit the detector threshold.
    HistoryTrimmed,    //!< predictor history discarded after a firing.
    CheckpointWritten, //!< snapshot published to disk.
    WalAppend,         //!< WAL record appended (a = payload bytes).
    RecoveryRung,      //!< recovery ladder rung taken at startup.
    CacheHit,          //!< .qtc trace cache hit.
    CacheStale,        //!< .qtc present but out of date.
    CacheCorrupt,      //!< .qtc failed validation.
    CacheMiss,         //!< no .qtc next to the trace.
    ParseDone,         //!< a trace file finished parsing.
    Span,              //!< generic timed section (ScopedTimer).
};

/** trace_event "name" for @p type (stable, snake_case). */
const char *eventTypeName(EventType type);

/**
 * One trace record. Kept flat and allocation-free on the emit path:
 * label must be a string literal (or otherwise outlive the ring) and
 * the two doubles are type-dependent payload (e.g. for BoundMiss,
 * a = predicted bound, b = observed wait).
 */
struct Event
{
    EventType type = EventType::Span;
    uint32_t tid = 0;        //!< obs::detail::threadIndex() of emitter.
    int64_t tsNanos = 0;     //!< nanoseconds since process start.
    int64_t durNanos = 0;    //!< span duration; 0 for instant events.
    double a = 0.0;          //!< payload, meaning depends on type.
    double b = 0.0;          //!< payload, meaning depends on type.
    uint64_t trace = 0;      //!< request trace id; 0 when untraced.
    const char *label = "";  //!< static string; "" when unused.
};

/** Monotonic nanoseconds since the first call in this process. */
int64_t nowNanos();

/**
 * Bounded multi-producer event buffer. Capacity is split evenly
 * across kShards shards; each shard overwrites its own oldest events
 * on wrap. Emission when full is therefore O(1) and never blocks on
 * other shards.
 */
class EventRing
{
  public:
    explicit EventRing(size_t capacity = 1 << 16);

    /** Append to the calling thread's shard (tid/ts filled here). */
    void emit(EventType type, double a = 0.0, double b = 0.0,
              const char *label = "", uint64_t trace = 0);

    /** Append a completed span covering [tsNanos, tsNanos+durNanos]. */
    void emitSpan(EventType type, int64_t tsNanos, int64_t durNanos,
                  const char *label, uint64_t trace = 0);

    /** All buffered events, merged and sorted by timestamp. */
    std::vector<Event> drain() const;

    /** Events overwritten because a shard wrapped. */
    uint64_t dropped() const;

    /** Empty every shard and zero the dropped count (test isolation). */
    void clear();

  private:
    struct Shard
    {
        mutable std::mutex mutex;
        std::vector<Event> ring;    //!< capacity-sized once full.
        size_t next = 0;            //!< overwrite cursor once wrapped.
        uint64_t dropped = 0;
    };

    void push(Shard &shard, const Event &event);

    size_t shardCapacity_;
    Shard shards_[kShards];
};

/** The process-wide ring every instrumentation site emits into. */
EventRing &events();

/** JSON Lines: one {"name":...,"ph":...,"ts":...} object per line. */
std::string renderJsonLines(const std::vector<Event> &events);

/** Chrome trace_event format: {"traceEvents":[...]}. */
std::string renderChromeTrace(const std::vector<Event> &events);

/**
 * Drain events() to @p path: JSON Lines when the path ends in
 * ".jsonl", Chrome trace_event JSON otherwise. On failure returns
 * false and sets @p error.
 */
bool writeEventsFile(const std::string &path, std::string *error);

/**
 * RAII timer: measures wall time from construction to destruction,
 * observes the elapsed seconds into @p histogram (if non-null) and
 * emits a span event (if observability is enabled at destruction).
 * Instantiated via QDEL_OBS_SPAN, which passes a null histogram when
 * observability is off at entry so the destructor stays cheap.
 */
class ScopedTimer
{
  public:
    ScopedTimer(Histogram *histogram, EventType type, const char *label)
        : histogram_(histogram), type_(type), label_(label),
          startNanos_(histogram ? nowNanos() : 0)
    {
    }

    // Inline so the null-histogram (observability off) path optimizes
    // down to a register test — an out-of-line destructor would force
    // every member to be spilled to the stack at each timed site.
    ~ScopedTimer()
    {
        if (!histogram_)
            return;
        finish();
    }

    ScopedTimer(const ScopedTimer &) = delete;
    ScopedTimer &operator=(const ScopedTimer &) = delete;

    /**
     * Attach a request trace id; the emitted span carries it so a
     * client-chosen id can be matched against the drained event
     * stream. Call via QDEL_OBS() so the site compiles away under
     * QDEL_OBS_DISABLE.
     */
    void setTrace(uint64_t trace) { trace_ = trace; }

  private:
    /** The enabled-path tail: observe the duration, emit the span. */
    void finish();

    Histogram *histogram_;
    EventType type_;
    const char *label_;
    int64_t startNanos_;
    uint64_t trace_ = 0;
};

} // namespace obs
} // namespace qdel

#endif // QDEL_OBS_EVENTS_HH
