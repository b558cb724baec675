/**
 * @file
 * Implementation of the span recorder.
 */

#include "spans.hh"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "report.hh"

namespace perfbench {
namespace spans {

namespace {

struct Record
{
    uint64_t id;
    uint64_t parent;
    uint64_t requestId;
    const char *name;
    int64_t startNs;
    int64_t endNs;
    int64_t chargedNs;  //!< Leaf-call time charged by chargeChild().
};

/** Bounds the recorder's memory (~56 bytes a span); extra spans are
 *  counted as dropped rather than recorded. */
constexpr size_t kMaxSpans = 2000000;

std::atomic<bool> g_enabled{false};
std::atomic<uint64_t> g_nextId{1};
std::mutex g_mutex;
std::vector<Record> g_records;  // guarded by g_mutex
uint64_t g_dropped = 0;         // guarded by g_mutex

thread_local Scope *t_open = nullptr;

void
push(const Record &rec)
{
    std::lock_guard<std::mutex> lock(g_mutex);
    if (g_records.size() >= kMaxSpans) {
        ++g_dropped;
        return;
    }
    g_records.push_back(rec);
}

/** Self time of every record, in g_records order; caller holds the lock. */
std::vector<int64_t>
selfTimesLocked()
{
    std::unordered_map<uint64_t, size_t> index;
    index.reserve(g_records.size());
    for (size_t i = 0; i < g_records.size(); ++i)
        index[g_records[i].id] = i;
    std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
        g_records.size());
    for (const auto &rec : g_records) {
        const auto it = rec.parent == 0 ? index.end() : index.find(rec.parent);
        if (it != index.end())
            children[it->second].push_back({rec.startNs, rec.endNs});
    }
    std::vector<int64_t> self(g_records.size());
    for (size_t i = 0; i < g_records.size(); ++i) {
        const Record &rec = g_records[i];
        auto &kids = children[i];
        std::sort(kids.begin(), kids.end());
        // Union of the children's intervals, clipped to this span:
        // concurrent children (pipelined requests) count once.
        int64_t covered = 0;
        int64_t reach = rec.startNs;
        for (const auto &[start, end] : kids) {
            const int64_t lo = std::max(start, reach);
            const int64_t hi = std::min(end, rec.endNs);
            if (hi > lo) {
                covered += hi - lo;
                reach = hi;
            }
        }
        const int64_t duration = rec.endNs - rec.startNs;
        self[i] = std::max<int64_t>(0, duration - covered - rec.chargedNs);
    }
    return self;
}

} // namespace

void
setEnabled(bool on)
{
    g_enabled.store(on, std::memory_order_relaxed);
}

bool
enabled()
{
    return g_enabled.load(std::memory_order_relaxed);
}

void
record(const char *name, int64_t startNs, int64_t endNs, uint64_t parent,
       uint64_t requestId)
{
    if (!enabled())
        return;
    const uint64_t id = g_nextId.fetch_add(1, std::memory_order_relaxed);
    push({id, parent, requestId, name, startNs, endNs, 0});
}

void
chargeChild(int64_t ns)
{
    if (t_open != nullptr)
        t_open->chargedNs_ += ns;
}

Scope::Scope(const char *name, uint64_t requestId)
    : name_(name), requestId_(requestId)
{
    if (!enabled())
        return;
    outer_ = t_open;
    parent_ = outer_ != nullptr ? outer_->id_ : 0;
    id_ = g_nextId.fetch_add(1, std::memory_order_relaxed);
    t_open = this;
    startNs_ = nowNs();
}

Scope::~Scope()
{
    if (id_ == 0)
        return;
    const int64_t end = nowNs();
    t_open = outer_;
    push({id_, parent_, requestId_, name_, startNs_, end, chargedNs_});
}

std::map<std::string, LayerTime>
layers()
{
    std::lock_guard<std::mutex> lock(g_mutex);
    const std::vector<int64_t> self = selfTimesLocked();
    std::map<std::string, LayerTime> out;
    for (size_t i = 0; i < g_records.size(); ++i) {
        LayerTime &layer = out[g_records[i].name];
        ++layer.count;
        layer.totalSeconds +=
            static_cast<double>(g_records[i].endNs - g_records[i].startNs) *
            1e-9;
        layer.selfSeconds += static_cast<double>(self[i]) * 1e-9;
    }
    return out;
}

uint64_t
dropped()
{
    std::lock_guard<std::mutex> lock(g_mutex);
    return g_dropped;
}

bool
write(const std::string &path)
{
    std::lock_guard<std::mutex> lock(g_mutex);
    const std::vector<int64_t> self = selfTimesLocked();
    std::FILE *out = std::fopen(path.c_str(), "w");
    if (out == nullptr)
        return false;
    std::fprintf(out, "id\tparent\trequest\tname\tstart_ns\tend_ns\tself_ns\n");
    for (size_t i = 0; i < g_records.size(); ++i) {
        const Record &rec = g_records[i];
        std::fprintf(out, "%llu\t%llu\t%llu\t%s\t%lld\t%lld\t%lld\n",
                     static_cast<unsigned long long>(rec.id),
                     static_cast<unsigned long long>(rec.parent),
                     static_cast<unsigned long long>(rec.requestId),
                     rec.name, static_cast<long long>(rec.startNs),
                     static_cast<long long>(rec.endNs),
                     static_cast<long long>(self[i]));
    }
    return std::fclose(out) == 0;
}

} // namespace spans
} // namespace perfbench
