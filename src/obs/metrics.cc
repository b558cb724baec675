/**
 * @file
 * Implementation of the metrics registry and its serializers.
 */

#include "obs/metrics.hh"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "util/json.hh"

namespace qdel {
namespace obs {

namespace detail {

std::atomic<bool> g_enabled{false};

size_t
threadIndex()
{
    static std::atomic<size_t> next{0};
    thread_local const size_t index =
        next.fetch_add(1, std::memory_order_relaxed);
    return index;
}

namespace {

/**
 * Shortest decimal form of a double that round-trips the values we
 * use as bucket bounds ("0.001", "1", "2.5"); %g with enough digits,
 * trailing-zero trimmed by the format itself.
 */
std::string
formatDouble(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.12g", v);
    return buf;
}

} // namespace
} // namespace detail

void
setEnabled(bool enabled)
{
    detail::g_enabled.store(enabled, std::memory_order_relaxed);
}

uint64_t
Counter::value() const
{
    uint64_t total = 0;
    for (const Shard &shard : shards_)
        total += shard.value.load(std::memory_order_relaxed);
    return total;
}

Histogram::Histogram(std::string name, std::string help,
                     std::vector<double> bounds)
    : name_(std::move(name)), help_(std::move(help)),
      bounds_(std::move(bounds))
{
    std::sort(bounds_.begin(), bounds_.end());
    bounds_.erase(std::unique(bounds_.begin(), bounds_.end()),
                  bounds_.end());
    for (Shard &shard : shards_) {
        shard.buckets =
            std::vector<std::atomic<uint64_t>>(bounds_.size() + 1);
    }
}

size_t
Histogram::bucketIndex(double v) const
{
    // First bound >= v wins ("le" semantics: a value exactly on a
    // boundary belongs to that boundary's bucket); everything above
    // the last bound goes to the overflow (+Inf) bucket. NaN is not
    // <= any finite bound, so it belongs in overflow too, but every
    // NaN comparison is false and lower_bound would return begin() --
    // route it explicitly.
    if (std::isnan(v))
        return bounds_.size();
    const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
    return static_cast<size_t>(it - bounds_.begin());
}

std::vector<uint64_t>
Histogram::counts() const
{
    std::vector<uint64_t> totals(bounds_.size() + 1, 0);
    for (const Shard &shard : shards_) {
        for (size_t i = 0; i < totals.size(); ++i) {
            totals[i] +=
                shard.buckets[i].load(std::memory_order_relaxed);
        }
    }
    return totals;
}

uint64_t
Histogram::count() const
{
    uint64_t total = 0;
    for (uint64_t c : counts())
        total += c;
    return total;
}

double
Histogram::sum() const
{
    double total = 0.0;
    for (const Shard &shard : shards_)
        total += shard.sum.load(std::memory_order_relaxed);
    return total;
}

std::vector<double>
exponentialBounds(double first, double factor, size_t n)
{
    std::vector<double> bounds;
    bounds.reserve(n);
    double bound = first;
    for (size_t i = 0; i < n; ++i) {
        bounds.push_back(bound);
        bound *= factor;
    }
    return bounds;
}

void
MetricsSnapshot::merge(const MetricsSnapshot &other)
{
    auto find_counter = [this](const std::string &name) -> CounterSnapshot * {
        for (auto &c : counters)
            if (c.name == name)
                return &c;
        return nullptr;
    };
    for (const CounterSnapshot &c : other.counters) {
        if (CounterSnapshot *mine = find_counter(c.name))
            mine->value += c.value;
        else
            counters.push_back(c);
    }

    auto find_gauge = [this](const std::string &name) -> GaugeSnapshot * {
        for (auto &g : gauges)
            if (g.name == name)
                return &g;
        return nullptr;
    };
    for (const GaugeSnapshot &g : other.gauges) {
        if (GaugeSnapshot *mine = find_gauge(g.name))
            mine->value = g.value;  // latest wins
        else
            gauges.push_back(g);
    }

    auto find_histogram =
        [this](const std::string &name) -> HistogramSnapshot * {
        for (auto &h : histograms)
            if (h.name == name)
                return &h;
        return nullptr;
    };
    for (const HistogramSnapshot &h : other.histograms) {
        HistogramSnapshot *mine = find_histogram(h.name);
        if (!mine) {
            histograms.push_back(h);
            continue;
        }
        if (mine->bounds != h.bounds) {
            // Incompatible layouts cannot be summed bucket-by-bucket;
            // keep ours (merge is aggregation plumbing, not a parser).
            continue;
        }
        for (size_t i = 0; i < mine->counts.size(); ++i)
            mine->counts[i] += h.counts[i];
        mine->sum += h.sum;
        mine->count += h.count;
    }
}

std::string
renderPrometheus(const MetricsSnapshot &snapshot)
{
    std::string out;
    char buf[128];
    for (const CounterSnapshot &c : snapshot.counters) {
        out += "# HELP " + c.name + " " + c.help + "\n";
        out += "# TYPE " + c.name + " counter\n";
        std::snprintf(buf, sizeof(buf), "%s %" PRIu64 "\n",
                      c.name.c_str(), c.value);
        out += buf;
    }
    for (const GaugeSnapshot &g : snapshot.gauges) {
        out += "# HELP " + g.name + " " + g.help + "\n";
        out += "# TYPE " + g.name + " gauge\n";
        out += g.name + " " + detail::formatDouble(g.value) + "\n";
    }
    for (const HistogramSnapshot &h : snapshot.histograms) {
        out += "# HELP " + h.name + " " + h.help + "\n";
        out += "# TYPE " + h.name + " histogram\n";
        uint64_t cumulative = 0;
        for (size_t i = 0; i < h.bounds.size(); ++i) {
            cumulative += h.counts[i];
            std::snprintf(buf, sizeof(buf),
                          "%s_bucket{le=\"%s\"} %" PRIu64 "\n",
                          h.name.c_str(),
                          detail::formatDouble(h.bounds[i]).c_str(),
                          cumulative);
            out += buf;
        }
        cumulative += h.counts.empty() ? 0 : h.counts.back();
        std::snprintf(buf, sizeof(buf),
                      "%s_bucket{le=\"+Inf\"} %" PRIu64 "\n",
                      h.name.c_str(), cumulative);
        out += buf;
        out += h.name + "_sum " + detail::formatDouble(h.sum) + "\n";
        std::snprintf(buf, sizeof(buf), "%s_count %" PRIu64 "\n",
                      h.name.c_str(), h.count);
        out += buf;
    }
    return out;
}

std::string
renderJson(const MetricsSnapshot &snapshot)
{
    // Gauges, sums and bounds keep the exposition's 12 digits.
    const auto number = [](double v) { return jsonNumber(v, "%.12g"); };
    std::string out;
    JsonWriter w(out);
    w.beginObject().key("counters").beginObject();
    for (const CounterSnapshot &c : snapshot.counters)
        w.field(c.name, c.value);
    w.endObject().key("gauges").beginObject();
    for (const GaugeSnapshot &g : snapshot.gauges)
        w.key(g.name).raw(number(g.value));
    w.endObject().key("histograms").beginObject();
    for (const HistogramSnapshot &h : snapshot.histograms) {
        w.key(h.name).beginObject().key("bounds").beginArray();
        for (double bound : h.bounds)
            w.raw(number(bound));
        w.endArray().key("counts").beginArray();
        for (uint64_t count : h.counts)
            w.value(count);
        w.endArray().key("sum").raw(number(h.sum));
        w.field("count", h.count).endObject();
    }
    w.endObject().endObject();
    out += '\n';
    return out;
}

Counter &
Registry::counter(const std::string &name, const std::string &help)
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (Counter &c : counters_) {
        if (c.name_ == name)
            return c;
    }
    counters_.emplace_back(name, help);
    return counters_.back();
}

Gauge &
Registry::gauge(const std::string &name, const std::string &help)
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (Gauge &g : gauges_) {
        if (g.name_ == name)
            return g;
    }
    gauges_.emplace_back(name, help);
    return gauges_.back();
}

Histogram &
Registry::histogram(const std::string &name, const std::string &help,
                    std::vector<double> bounds)
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (Histogram &h : histograms_) {
        if (h.name_ == name)
            return h;
    }
    histograms_.emplace_back(name, help, std::move(bounds));
    return histograms_.back();
}

MetricsSnapshot
Registry::snapshot() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    MetricsSnapshot snap;
    snap.counters.reserve(counters_.size());
    for (const Counter &c : counters_)
        snap.counters.push_back({c.name_, c.help_, c.value()});
    snap.gauges.reserve(gauges_.size());
    for (const Gauge &g : gauges_)
        snap.gauges.push_back({g.name_, g.help_, g.value()});
    snap.histograms.reserve(histograms_.size());
    for (const Histogram &h : histograms_) {
        snap.histograms.push_back(
            {h.name_, h.help_, h.bounds_, h.counts(), h.sum(),
             h.count()});
    }
    return snap;
}

void
Registry::resetForTest()
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (Counter &c : counters_) {
        for (Counter::Shard &shard : c.shards_)
            shard.value.store(0, std::memory_order_relaxed);
    }
    for (Gauge &g : gauges_)
        g.value_.store(0.0, std::memory_order_relaxed);
    for (Histogram &h : histograms_) {
        for (Histogram::Shard &shard : h.shards_) {
            for (auto &bucket : shard.buckets)
                bucket.store(0, std::memory_order_relaxed);
            shard.sum.store(0.0, std::memory_order_relaxed);
        }
    }
}

Registry &
registry()
{
    // Intentionally immortal: atexit dumpers and worker threads still
    // running during shutdown may touch the registry after an ordinary
    // function-local static would have been destroyed.
    static Registry *instance = new Registry;
    return *instance;
}

bool
writeMetricsFile(const std::string &path, std::string *error)
{
    const MetricsSnapshot snap = registry().snapshot();
    const bool json =
        path.size() >= 5 &&
        path.compare(path.size() - 5, 5, ".json") == 0;
    std::ofstream out(path);
    if (!out) {
        if (error)
            *error = "cannot open '" + path + "' for writing";
        return false;
    }
    out << (json ? renderJson(snap) : renderPrometheus(snap));
    out.flush();
    if (!out) {
        if (error)
            *error = "write to '" + path + "' failed";
        return false;
    }
    return true;
}

} // namespace obs
} // namespace qdel
