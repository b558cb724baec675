/**
 * @file
 * Low-overhead, thread-safe metrics registry: counters, gauges, and
 * fixed-bucket histograms backed by sharded atomics, so a hot-path
 * update is one relaxed atomic RMW on a cache line that (statistically)
 * no other thread is touching.
 *
 * Design constraints, in order:
 *  - a *disabled* registry must cost almost nothing: every
 *    instrumentation site is wrapped in QDEL_OBS()/QDEL_OBS_SPAN()
 *    (see obs.hh), which reduces to a single relaxed atomic bool load
 *    and a predictable branch when observability is off, and to
 *    nothing at all when compiled with -DQDEL_OBS_DISABLE;
 *  - an *enabled* update must not serialize concurrent writers:
 *    every metric is split into kShards cache-line-aligned shards and
 *    each thread sticks to one shard, so concurrent increments sum
 *    exactly (verified under TSan) without contending on one line;
 *  - reads are rare and may be slow: snapshot() sums the shards under
 *    the registration mutex and returns plain structs that can be
 *    merged, serialized to Prometheus text exposition, or to JSON.
 *
 * Metric handles returned by the registry are stable for the lifetime
 * of the process (deque storage, never erased), so call sites cache
 * references in function-local statics and pay the registration mutex
 * exactly once.
 */

#ifndef QDEL_OBS_METRICS_HH
#define QDEL_OBS_METRICS_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

namespace qdel {
namespace obs {

/** Shards per metric; a power of two so the thread hash is a mask. */
constexpr size_t kShards = 8;

namespace detail {

/** Process-wide observability switch; see obs::enabled(). */
extern std::atomic<bool> g_enabled;

/**
 * Stable small index for the calling thread, used both to pick a
 * metric shard and as the "tid" of trace events. Assigned on first
 * use from a global counter, so ids are dense and deterministic in
 * single-threaded runs.
 */
size_t threadIndex();

inline size_t
threadShard()
{
    return threadIndex() & (kShards - 1);
}

/** Relaxed add for pre-C++20-fetch_add-on-double portability. */
inline void
addDouble(std::atomic<double> &target, double delta)
{
    double current = target.load(std::memory_order_relaxed);
    while (!target.compare_exchange_weak(current, current + delta,
                                         std::memory_order_relaxed,
                                         std::memory_order_relaxed)) {
    }
}

} // namespace detail

/** @return true when metric/event collection is on (default: off). */
inline bool
enabled()
{
    return detail::g_enabled.load(std::memory_order_relaxed);
}

/** Turn collection on or off process-wide. */
void setEnabled(bool enabled);

/** Monotonically increasing event count. */
class Counter
{
  public:
    /** Add @p n; one relaxed RMW on the caller's shard. */
    void
    inc(uint64_t n = 1)
    {
        shards_[detail::threadShard()].value.fetch_add(
            n, std::memory_order_relaxed);
    }

    /** Sum over shards (racy-by-design snapshot read). */
    uint64_t value() const;

    const std::string &name() const { return name_; }
    const std::string &help() const { return help_; }

    /** Prefer Registry::counter(); public for direct/test use. */
    Counter(std::string name, std::string help)
        : name_(std::move(name)), help_(std::move(help))
    {
    }

  private:
    friend class Registry;

    struct alignas(64) Shard
    {
        std::atomic<uint64_t> value{0};
    };

    std::string name_;
    std::string help_;
    Shard shards_[kShards];
};

/** Last-write-wins instantaneous value. */
class Gauge
{
  public:
    void
    set(double v)
    {
        value_.store(v, std::memory_order_relaxed);
    }

    void
    add(double delta)
    {
        detail::addDouble(value_, delta);
    }

    double
    value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

    /** Prefer Registry::gauge(); public for direct/test use. */
    Gauge(std::string name, std::string help)
        : name_(std::move(name)), help_(std::move(help))
    {
    }

  private:
    friend class Registry;

    std::string name_;
    std::string help_;
    std::atomic<double> value_{0.0};
};

/**
 * Fixed-bucket histogram with Prometheus "le" semantics: bucket i
 * counts observations <= bounds[i]; one extra overflow bucket counts
 * everything above the last bound (the "+Inf" bucket). Values below
 * the first bound land in bucket 0 — there is no separate underflow
 * bucket, exactly like Prometheus.
 */
class Histogram
{
  public:
    /** Record @p v: one shard bucket RMW plus the running sum. */
    void
    observe(double v)
    {
        Shard &shard = shards_[detail::threadShard()];
        shard.buckets[bucketIndex(v)].fetch_add(
            1, std::memory_order_relaxed);
        detail::addDouble(shard.sum, v);
    }

    /** Index of the bucket @p v falls into (last = overflow). */
    size_t bucketIndex(double v) const;

    /** Upper bounds, ascending; counts() has one more entry. */
    const std::vector<double> &bounds() const { return bounds_; }

    /** Per-bucket (non-cumulative) counts summed over shards. */
    std::vector<uint64_t> counts() const;

    /** Total observation count. */
    uint64_t count() const;

    /** Sum of observed values. */
    double sum() const;

    const std::string &name() const { return name_; }

    /** Prefer Registry::histogram(); public for direct/test use. */
    Histogram(std::string name, std::string help,
              std::vector<double> bounds);

  private:
    friend class Registry;

    struct alignas(64) Shard
    {
        std::vector<std::atomic<uint64_t>> buckets;
        std::atomic<double> sum{0.0};
    };

    std::string name_;
    std::string help_;
    std::vector<double> bounds_;
    Shard shards_[kShards];
};

/** Exponential bucket bounds: @p first, first*factor, ... (n bounds). */
std::vector<double> exponentialBounds(double first, double factor,
                                      size_t n);

/** Point-in-time copy of one counter. */
struct CounterSnapshot
{
    std::string name;
    std::string help;
    uint64_t value = 0;
};

/** Point-in-time copy of one gauge. */
struct GaugeSnapshot
{
    std::string name;
    std::string help;
    double value = 0.0;
};

/** Point-in-time copy of one histogram (non-cumulative counts). */
struct HistogramSnapshot
{
    std::string name;
    std::string help;
    std::vector<double> bounds;
    std::vector<uint64_t> counts;  //!< bounds.size() + 1 entries.
    double sum = 0.0;
    uint64_t count = 0;
};

/**
 * A full registry dump, mergeable and serializable. merge() sums
 * counters and histogram buckets by name (histograms must have equal
 * bounds) and takes the other side's value for gauges — the semantics
 * of folding a worker's registry into an aggregator's.
 */
struct MetricsSnapshot
{
    std::vector<CounterSnapshot> counters;
    std::vector<GaugeSnapshot> gauges;
    std::vector<HistogramSnapshot> histograms;

    void merge(const MetricsSnapshot &other);
};

/** Prometheus text exposition format (HELP/TYPE + samples). */
std::string renderPrometheus(const MetricsSnapshot &snapshot);

/** The same content as one compact JSON object, newline-terminated;
 *  a non-finite gauge, bound or sum is null. */
std::string renderJson(const MetricsSnapshot &snapshot);

/**
 * Owner of all metrics. Registration takes a mutex and is idempotent
 * per (type, name): asking again returns the existing instance, so
 * independent call sites can share a metric by name alone.
 */
class Registry
{
  public:
    Counter &counter(const std::string &name, const std::string &help);
    Gauge &gauge(const std::string &name, const std::string &help);
    Histogram &histogram(const std::string &name, const std::string &help,
                         std::vector<double> bounds);

    /** Sum every metric into plain structs, registration order. */
    MetricsSnapshot snapshot() const;

    /**
     * Zero every metric (registrations survive). Test isolation only:
     * concurrent hot-path updates during a reset are not lost-update
     * safe.
     */
    void resetForTest();

  private:
    mutable std::mutex mutex_;
    std::deque<Counter> counters_;
    std::deque<Gauge> gauges_;
    std::deque<Histogram> histograms_;
};

/** The process-wide default registry every instrumentation site uses. */
Registry &registry();

/**
 * Serialize registry() to @p path: Prometheus text exposition, or the
 * JSON rendering when the path ends in ".json". On failure returns
 * false and sets @p error.
 */
bool writeMetricsFile(const std::string &path, std::string *error);

} // namespace obs
} // namespace qdel

#endif // QDEL_OBS_METRICS_HH
