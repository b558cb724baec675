/**
 * @file
 * Implementation of the sharded bound registry.
 */

#include "serve/bound_registry.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

#include "core/predictor_factory.hh"
#include "obs/calibration.hh"
#include "obs/domain_metrics.hh"
#include "obs/obs.hh"
#include "persist/io.hh"
#include "persist/state_codec.hh"
#include "util/atomic_shared_ptr.hh"
#include "util/logging.hh"

namespace qdel {
namespace serve {

namespace {

// v2 added the per-client retry-dedup fences (clientSeq); v3 added
// the bound captured at submit on each pending job plus the per-entry
// calibration counters and rolling window; v4 replaced the refit-every-K
// policy with the replay core (epoch clock, submit count, scored counts)
// and echoes epochSeconds/trainJobs; v5 moved the rolling window into
// the core's state.
constexpr uint32_t kShardStateVersion = 5;
const char *const kShardStateTag = "qdel-serve-shard";

std::string
keyString(const std::string &machine, const std::string &queue, int bucket)
{
    std::string key;
    key.reserve(machine.size() + queue.size() + 4);
    key += machine;
    key += '\x1f';
    key += queue;
    key += '\x1f';
    key += static_cast<char>('0' + bucket);
    return key;
}

} // namespace

size_t
gridIndexFor(double q)
{
    if (std::isnan(q))
        q = 0.95;
    size_t best = 0;
    double best_distance = std::fabs(kGridQuantiles[0] - q);
    for (size_t i = 1; i < kGridCount; ++i) {
        const double distance = std::fabs(kGridQuantiles[i] - q);
        if (distance < best_distance) {
            best = i;
            best_distance = distance;
        }
    }
    return best;
}

/** Writer-owned entry state + the reader-visible published snapshot. */
struct BoundRegistry::Entry
{
    Entry(std::unique_ptr<core::Predictor> owned, const Options &options)
        : predictor(std::move(owned)),
          replay(*predictor, {options.epochSeconds, options.trainJobs})
    {
    }

    std::string machine;
    std::string queue;
    int bucket = 0;

    std::unique_ptr<core::Predictor> predictor;
    /** The Section 5.1 rules — epochs, training split, scored counts —
     *  run by the same core as the offline replay. */
    sim::QueueCore replay;
    uint64_t observations = 0;
    uint64_t running = 0;
    uint64_t version = 0;

    /**
     * One submitted-but-not-started job. boundAtSubmit captures the
     * published primary-quantile upper bound the instant the submit
     * was applied — exactly what a query at that moment would have
     * answered — so the wait can be scored against the bound the
     * service actually stood behind, mirroring the offline replay's
     * predict-at-submit / score-at-start rule. scoreable is false
     * for the training submits (offline scores only post-training
     * jobs).
     */
    struct PendingJob
    {
        double submitTime = 0.0;
        double boundAtSubmit = 0.0;
        bool scoreable = false;
    };
    std::map<uint64_t, PendingJob> pending;  //!< by jobId.

    AtomicSharedPtr<const BoundSnapshot> snapshot;
};

struct BoundRegistry::Shard
{
    std::mutex writer;
    AtomicSharedPtr<const KeyMap> keys;
    uint64_t applied = 0;
    uint64_t rejected = 0;
    /** Highest processed seq per clientId — the retry-dedup fence.
     *  Mutated only by applyLocked, so WAL replay rebuilds it. */
    std::map<std::string, uint64_t> clientSeq;
    /** Sum of pending.size() over the shard's entries, maintained
     *  incrementally so admission control is O(1). */
    uint64_t pendingTotal = 0;
};

Expected<Unit>
BoundRegistry::Options::validate() const
{
    if (shards < 1 || shards > 4096) {
        return ParseError{"", 0, "shards",
                          "shard count must be in [1, 4096], got " +
                              std::to_string(shards)};
    }
    if (kGridQuantiles[gridIndexFor(quantile)] != quantile) {
        // Calibration scores the grid bound, so an off-grid quantile
        // would silently judge a different one.
        return ParseError{"", 0, "quantile",
                          "must be one of the published grid quantiles "
                          "(0.25, 0.5, 0.6, 0.7, 0.75, 0.8, 0.85, 0.9, "
                          "0.95, 0.96, 0.97, 0.98, 0.99), got " +
                              std::to_string(quantile)};
    }
    // Negated so NaN fails too.
    if (!(epochSeconds >= 0.0) || !std::isfinite(epochSeconds)) {
        return ParseError{"", 0, "epochSeconds",
                          "must be finite and >= 0, got " +
                              std::to_string(epochSeconds)};
    }
    core::PredictorOptions predictor_options;
    predictor_options.quantile = quantile;
    predictor_options.confidence = confidence;
    auto probe = core::tryMakePredictor(method, predictor_options);
    if (!probe.ok())
        return probe.error();
    return Unit{};
}

BoundRegistry::BoundRegistry(const Options &options)
    : options_(options), primaryGridIndex_(gridIndexFor(options.quantile)),
      rareTable_(options.quantile)
{
    if (auto valid = options_.validate(); !valid.ok())
        panic("BoundRegistry constructed with invalid options: " +
              valid.error().reason);
    shards_.reserve(options_.shards);
    for (size_t s = 0; s < options_.shards; ++s) {
        auto shard = std::make_unique<Shard>();
        shard->keys.store(std::make_shared<const KeyMap>());
        shards_.push_back(std::move(shard));
    }
}

BoundRegistry::~BoundRegistry() = default;

size_t
BoundRegistry::shardForKey(const std::string &machine,
                           const std::string &queue, int bucket) const
{
    const std::string key = keyString(machine, queue, bucket);
    return persist::crc32(key.data(), key.size()) % shards_.size();
}

size_t
BoundRegistry::shardForEvent(const JobEvent &event) const
{
    return shardForKey(event.machine, event.queue,
                       procBucketFor(event.procs));
}

std::unique_lock<std::mutex>
BoundRegistry::lockShard(size_t s)
{
    return std::unique_lock<std::mutex>(shards_[s]->writer);
}

std::shared_ptr<BoundRegistry::Entry>
BoundRegistry::findEntry(size_t s, const std::string &key) const
{
    const auto keys = shards_[s]->keys.load();
    const auto it = keys->find(key);
    if (it == keys->end())
        return nullptr;
    return it->second;
}

std::shared_ptr<BoundRegistry::Entry>
BoundRegistry::makeEntry(const JobEvent &event) const
{
    auto entry = std::make_shared<Entry>(makePredictor(), options_);
    entry->machine = event.machine;
    entry->queue = event.queue;
    entry->bucket = procBucketFor(event.procs);
    return entry;
}

void
BoundRegistry::insertLocked(size_t s, const std::string &key,
                            std::shared_ptr<Entry> entry)
{
    Shard &shard = *shards_[s];
    const auto old_keys = shard.keys.load();
    auto next_keys = std::make_shared<KeyMap>(*old_keys);
    (*next_keys)[key] = std::move(entry);
    shard.keys.store(std::move(next_keys));
    QDEL_OBS(obs::serveMetrics().entries.add(1.0));
}

std::unique_ptr<core::Predictor>
BoundRegistry::makePredictor() const
{
    core::PredictorOptions predictor_options;
    predictor_options.quantile = options_.quantile;
    predictor_options.confidence = options_.confidence;
    predictor_options.rareEventTable = &rareTable_;
    return core::makePredictor(options_.method, predictor_options);
}

std::shared_ptr<BoundSnapshot>
BoundRegistry::captureGrid(const Entry &entry) const
{
    core::QuantileEstimate upper[kGridCount];
    core::QuantileEstimate lower[kGridCount];
    entry.predictor->boundGrid(kGridQuantiles, kGridCount, upper, lower);
    auto snapshot = std::make_shared<BoundSnapshot>();
    for (size_t i = 0; i < kGridCount; ++i) {
        snapshot->upper[i] = upper[i].value;
        snapshot->lower[i] = lower[i].value;
    }
    snapshot->historySize = entry.predictor->historySize();
    snapshot->observations = entry.observations;
    return snapshot;
}

void
BoundRegistry::publish(Entry &entry, std::shared_ptr<BoundSnapshot> snapshot)
{
    snapshot->version = ++entry.version;
    entry.snapshot.store(std::move(snapshot));
    QDEL_OBS(obs::serveMetrics().snapshotPublishes.inc());
}

void
BoundRegistry::releaseLocked(Entry &entry, double time, double wait)
{
    // The grid is a function of the live history, so it is captured
    // right after the bound moves: after the epochs strictly before
    // this start, and again if the observation trips a trim. Readers
    // see at most one publish per event.
    entry.replay.beginRelease(time);
    std::shared_ptr<BoundSnapshot> next;
    if (entry.replay.takeBoundMoved())
        next = captureGrid(entry);
    ++entry.observations;
    entry.replay.observe(wait);
    if (entry.replay.takeBoundMoved())
        next = captureGrid(entry);
    if (next)
        publish(entry, std::move(next));
}

const char *
BoundRegistry::eventTimeProblem(double time) const
{
    if (!std::isfinite(time))
        return "event time is not finite";
    // Past the point where one epoch is below the resolution of a
    // double the epoch clock cannot advance.
    if (options_.epochSeconds > 0.0 && time + options_.epochSeconds == time)
        return "event time is too large for the epoch length";
    return nullptr;
}

bool
BoundRegistry::isDuplicateLocked(size_t s, const JobEvent &event) const
{
    if (event.clientId.empty())
        return false;
    const Shard &shard = *shards_[s];
    const auto it = shard.clientSeq.find(event.clientId);
    return it != shard.clientSeq.end() && event.seq <= it->second;
}

uint64_t
BoundRegistry::pendingCountLocked(size_t s) const
{
    return shards_[s]->pendingTotal;
}

ApplyOutcome
BoundRegistry::applyLocked(size_t s, const JobEvent &event)
{
    Shard &shard = *shards_[s];
    ApplyOutcome outcome;
    // Any processed event — applied or deterministically rejected —
    // advances the client's fence, so a retry of either outcome
    // dedups instead of replaying the decision.
    if (!event.clientId.empty())
        shard.clientSeq[event.clientId] = event.seq;
    const std::string key = keyString(event.machine, event.queue,
                                      procBucketFor(event.procs));
    switch (event.kind) {
    case EventKind::Submit: {
        outcome.rejectReason = eventTimeProblem(event.time);
        if (outcome.rejectReason != nullptr)
            break;
        auto entry = findEntry(s, key);
        const bool created = entry == nullptr;
        if (created) {
            entry = makeEntry(event);
        } else if (entry->pending.count(event.jobId) != 0) {
            outcome.rejectReason = "duplicate submit for job id";
            break;
        }
        const bool scored = entry->replay.submit(event.time);
        // A new key becomes visible to readers only with a published
        // grid (its first submit refits anyway, at its first epoch).
        if (entry->replay.takeBoundMoved() || created)
            publish(*entry, captureGrid(*entry));
        if (created)
            insertLocked(s, key, entry);
        Entry::PendingJob pending_job;
        pending_job.submitTime = event.time;
        if (scored) {
            // Capture the bound the service stands behind right now:
            // the published snapshot is what any concurrent query
            // answers, and it only moves under this same shard lock,
            // so the capture is deterministic under WAL replay.
            const auto snapshot = entry->snapshot.load();
            pending_job.boundAtSubmit = snapshot->upper[primaryGridIndex_];
            pending_job.scoreable = true;
        }
        entry->pending.emplace(event.jobId, pending_job);
        ++shard.pendingTotal;
        QDEL_OBS(obs::serveMetrics().pendingJobs.add(1.0));
        outcome.applied = true;
        break;
    }
    case EventKind::Start: {
        auto entry = findEntry(s, key);
        if (entry == nullptr) {
            outcome.rejectReason = "start for unknown key";
            break;
        }
        const auto it = entry->pending.find(event.jobId);
        if (it == entry->pending.end()) {
            outcome.rejectReason = "start without a pending submit";
            break;
        }
        const double wait = event.time - it->second.submitTime;
        if (!(wait >= 0.0)) {  // NaN rejects too.
            outcome.rejectReason = "start time precedes submit time";
            break;
        }
        outcome.rejectReason = eventTimeProblem(event.time);
        if (outcome.rejectReason != nullptr)
            break;
        const bool scoreable = it->second.scoreable;
        const double bound = it->second.boundAtSubmit;
        entry->pending.erase(it);
        --shard.pendingTotal;
        QDEL_OBS(obs::serveMetrics().pendingJobs.add(-1.0));
        ++entry->running;
        // Score against the submit-time bound before observing the
        // wait: the outcome must judge the bound that was answered,
        // not one refreshed by this very observation.
        scoreLocked(*entry, scoreable, bound, wait, event.traceId);
        releaseLocked(*entry, event.time, wait);
        outcome.applied = true;
        break;
    }
    case EventKind::Done: {
        auto entry = findEntry(s, key);
        if (entry == nullptr || entry->running == 0) {
            outcome.rejectReason = "done without a running job";
            break;
        }
        --entry->running;
        outcome.applied = true;
        break;
    }
    }
    if (outcome.applied) {
        ++shard.applied;
        QDEL_OBS(obs::serveMetrics().eventsApplied.inc());
    } else {
        ++shard.rejected;
        QDEL_OBS(obs::serveMetrics().eventsRejected.inc());
    }
    // Traced ingests leave an instant marker at the registry layer so
    // the drained event stream shows the full reactor -> service ->
    // registry path for one request.
    QDEL_OBS({
        if (event.traceId != 0) {
            obs::events().emit(obs::EventType::Span,
                               static_cast<double>(event.jobId),
                               outcome.applied ? 1.0 : 0.0,
                               "registry_apply", event.traceId);
        }
    });
    return outcome;
}

void
BoundRegistry::scoreLocked(Entry &entry, bool scoreable, double bound,
                           double wait, uint64_t traceId)
{
    if (!scoreable) {
        QDEL_OBS(obs::calibrationMetrics().unscored.inc());
        return;
    }
    // The offline scoring rule, applied by the core: an infinite bound
    // counts as covering (the service answered "no useful bound", not
    // a wrong one) and is tallied.
    const bool hit = entry.replay.scoreRelease(bound, wait);
    QDEL_OBS({
        obs::calibrationMetrics().scored.inc();
        if (!std::isfinite(bound))
            obs::calibrationMetrics().infinite.inc();
        if (hit)
            obs::calibrationMetrics().hits.inc();
        else
            obs::calibrationMetrics().misses.inc();
        // Like the offline scorer, infinite bounds are tallied but not
        // evented — inf has no JSON rendering, and the interesting
        // payload (bound vs wait) only exists when the bound is real.
        if (std::isfinite(bound)) {
            obs::events().emit(hit ? obs::EventType::BoundHit
                                   : obs::EventType::BoundMiss,
                               bound, wait, "serve_calibration", traceId);
        }
    });
}

ApplyOutcome
BoundRegistry::apply(const JobEvent &event)
{
    const size_t s = shardForEvent(event);
    auto lock = lockShard(s);
    return applyLocked(s, event);
}

BoundAnswer
BoundRegistry::query(const BoundQuery &query) const
{
    BoundAnswer answer;
    answer.confidence = options_.confidence;
    const size_t gi = gridIndexFor(query.quantile);
    answer.quantile = kGridQuantiles[gi];

    const int bucket = procBucketFor(query.procs);
    const size_t s = shardForKey(query.machine, query.queue, bucket);
    const auto entry =
        findEntry(s, keyString(query.machine, query.queue, bucket));
    if (entry == nullptr)
        return answer;
    const auto snapshot = entry->snapshot.load();
    answer.known = true;
    answer.upper = snapshot->upper[gi];
    answer.lower = snapshot->lower[gi];
    answer.historySize = snapshot->historySize;
    answer.observations = snapshot->observations;
    answer.version = snapshot->version;
    QDEL_OBS(obs::serveMetrics().queries.inc());
    return answer;
}

void
BoundRegistry::queryBatch(const BoundQuery *queries, size_t count,
                          BoundAnswer *answers, QueryScratch &scratch) const
{
    if (count == 0)
        return;
    // assign() reuses the vector's capacity, so after the first batch
    // this only releases the previous batch's key-map pins.
    scratch.maps_.assign(shards_.size(), nullptr);
    std::string &key = scratch.key_;
    for (size_t i = 0; i < count; ++i) {
        const BoundQuery &query = queries[i];
        BoundAnswer &answer = answers[i];
        answer = BoundAnswer{};
        answer.confidence = options_.confidence;
        const size_t gi = gridIndexFor(query.quantile);
        answer.quantile = kGridQuantiles[gi];

        const int bucket = procBucketFor(query.procs);
        key.clear();
        key += query.machine;
        key += '\x1f';
        key += query.queue;
        key += '\x1f';
        key += static_cast<char>('0' + bucket);
        const size_t s =
            persist::crc32(key.data(), key.size()) % shards_.size();
        if (scratch.maps_[s] == nullptr) {
            scratch.maps_[s] = shards_[s]->keys.load();
        }
        const KeyMap &keys =
            *static_cast<const KeyMap *>(scratch.maps_[s].get());
        const auto it = keys.find(key);
        if (it == keys.end())
            continue;
        const auto snapshot = it->second->snapshot.load();
        answer.known = true;
        answer.upper = snapshot->upper[gi];
        answer.lower = snapshot->lower[gi];
        answer.historySize = snapshot->historySize;
        answer.observations = snapshot->observations;
        answer.version = snapshot->version;
    }
    QDEL_OBS(obs::serveMetrics().queries.inc(count));
}

uint64_t
BoundRegistry::processedCount(size_t s) const
{
    // stats() runs on whatever reactor loop got the request, racing
    // event appliers on other loops; the counters are guarded by the
    // shard writer lock (cold path — stats only).
    Shard &shard = *shards_[s];
    std::lock_guard<std::mutex> lock(shard.writer);
    return shard.applied + shard.rejected;
}

ServeStats
BoundRegistry::stats() const
{
    ServeStats stats;
    stats.processedPerShard.reserve(shards_.size());
    for (size_t s = 0; s < shards_.size(); ++s) {
        stats.processedPerShard.push_back(processedCount(s));
        const auto keys = shards_[s]->keys.load();
        stats.entries += keys->size();
    }
    return stats;
}

std::vector<BoundRegistry::EntryView>
BoundRegistry::enumerate() const
{
    std::vector<EntryView> views;
    for (const auto &shard : shards_) {
        const auto keys = shard->keys.load();
        for (const auto &[key, entry] : *keys) {
            EntryView view;
            view.machine = entry->machine;
            view.queue = entry->queue;
            view.bucket = entry->bucket;
            view.snapshot = *entry->snapshot.load();
            views.push_back(std::move(view));
        }
    }
    std::sort(views.begin(), views.end(),
              [](const EntryView &a, const EntryView &b) {
                  const std::string ka =
                      keyString(a.machine, a.queue, a.bucket);
                  const std::string kb =
                      keyString(b.machine, b.queue, b.bucket);
                  return ka < kb;
              });
    return views;
}

Expected<Unit>
BoundRegistry::saveShard(size_t s, persist::StateWriter &writer) const
{
    const Shard &shard = *shards_[s];
    persist::writeStateHeader(writer, kShardStateTag, kShardStateVersion);
    writer.str(options_.method);
    writer.f64(options_.quantile);
    writer.f64(options_.confidence);
    writer.f64(options_.epochSeconds);
    writer.u64(options_.trainJobs);
    writer.u64(shards_.size());
    writer.u64(kGridCount);

    writer.u64(shard.applied);
    writer.u64(shard.rejected);
    writer.u64(shard.clientSeq.size());
    for (const auto &[client, seq] : shard.clientSeq) {
        writer.str(client);
        writer.u64(seq);
    }
    const auto keys = shard.keys.load();
    writer.u64(keys->size());
    for (const auto &[key, entry] : *keys) {
        writer.str(entry->machine);
        writer.str(entry->queue);
        writer.i64(entry->bucket);
        writer.u64(entry->observations);
        writer.u64(entry->running);
        writer.u64(entry->version);
        // The published grid is frozen at the last refit; the live
        // predictor history has moved past it, so the grid cannot be
        // recomputed on load — persist it verbatim.
        const auto snapshot = entry->snapshot.load();
        for (size_t i = 0; i < kGridCount; ++i) {
            writer.f64(snapshot->upper[i]);
            writer.f64(snapshot->lower[i]);
        }
        writer.u64(snapshot->historySize);
        writer.u64(snapshot->observations);
        writer.u64(entry->pending.size());
        for (const auto &[job_id, pending_job] : entry->pending) {
            writer.u64(job_id);
            writer.f64(pending_job.submitTime);
            writer.f64(pending_job.boundAtSubmit);
            writer.u8(pending_job.scoreable ? 1 : 0);
        }
        // The core's state (epoch clock, submit count, scored counts,
        // calibration window) followed by the predictor's.
        if (auto saved = entry->replay.saveState(writer); !saved.ok())
            return saved.error();
    }
    return Unit{};
}

Expected<Unit>
BoundRegistry::loadShard(size_t s, persist::StateReader &reader)
{
    persist::readStateHeader(reader, kShardStateTag, kShardStateVersion);
    // Config echo: a shard saved under different serving parameters
    // would replay to a different state, so refuse it outright.
    const std::string method = reader.str();
    const double quantile = reader.f64();
    const double confidence = reader.f64();
    const double epoch_seconds = reader.f64();
    const uint64_t train_jobs = reader.u64();
    const uint64_t shard_count = reader.u64();
    const uint64_t grid_count = reader.u64();
    if (method != options_.method || quantile != options_.quantile ||
        confidence != options_.confidence ||
        epoch_seconds != options_.epochSeconds ||
        train_jobs != options_.trainJobs || shard_count != shards_.size() ||
        grid_count != kGridCount) {
        reader.fail(ParseError{"", 0, "serveConfig",
                               "shard state was saved under a different "
                               "serve configuration"});
    }

    const uint64_t applied = reader.u64();
    const uint64_t rejected = reader.u64();
    const uint64_t client_count = reader.u64();
    std::map<std::string, uint64_t> next_client_seq;
    for (uint64_t c = 0; c < client_count && reader.ok(); ++c) {
        std::string client = reader.str();
        next_client_seq[std::move(client)] = reader.u64();
    }

    // Parse into locals, commit last: recovery retries older rungs on
    // the same registry after a parse error.
    const uint64_t entry_count = reader.u64();
    auto next_keys = std::make_shared<KeyMap>();
    double pending_delta = 0.0;
    for (uint64_t i = 0; i < entry_count && reader.ok(); ++i) {
        auto entry = std::make_shared<Entry>(makePredictor(), options_);
        entry->machine = reader.str();
        entry->queue = reader.str();
        entry->bucket = static_cast<int>(reader.i64());
        entry->observations = reader.u64();
        entry->running = reader.u64();
        entry->version = reader.u64();
        auto snapshot = std::make_shared<BoundSnapshot>();
        for (size_t g = 0; g < kGridCount; ++g) {
            snapshot->upper[g] = reader.f64();
            snapshot->lower[g] = reader.f64();
        }
        snapshot->historySize = reader.u64();
        snapshot->observations = reader.u64();
        snapshot->version = entry->version;
        const uint64_t pending_count = reader.u64();
        for (uint64_t p = 0; p < pending_count && reader.ok(); ++p) {
            const uint64_t job_id = reader.u64();
            Entry::PendingJob pending_job;
            pending_job.submitTime = reader.f64();
            pending_job.boundAtSubmit = reader.f64();
            pending_job.scoreable = reader.u8() != 0;
            entry->pending.emplace(job_id, pending_job);
        }
        if (auto loaded = entry->replay.loadState(reader); !loaded.ok())
            return loaded.error();
        // Restore the published grid exactly as saved — recomputing it
        // from the restored predictor would fold in observations made
        // after the last refit, which the frozen grid excludes.
        entry->snapshot.store(std::move(snapshot));
        pending_delta += static_cast<double>(entry->pending.size());
        (*next_keys)[keyString(entry->machine, entry->queue,
                               entry->bucket)] = entry;
    }
    if (!reader.ok())
        return reader.error();

    Shard &shard = *shards_[s];
    const auto old_keys = shard.keys.load();
    double old_pending = 0.0;
    for (const auto &[key, entry] : *old_keys)
        old_pending += static_cast<double>(entry->pending.size());
    QDEL_OBS({
        obs::serveMetrics().entries.add(
            static_cast<double>(next_keys->size()) -
            static_cast<double>(old_keys->size()));
        obs::serveMetrics().pendingJobs.add(pending_delta - old_pending);
    });
    shard.applied = applied;
    shard.rejected = rejected;
    shard.clientSeq = std::move(next_client_seq);
    shard.pendingTotal = static_cast<uint64_t>(pending_delta);
    shard.keys.store(std::move(next_keys));
    return Unit{};
}

BoundRegistry::CalibrationReport
BoundRegistry::calibrationReport() const
{
    CalibrationReport report;
    report.confidence = options_.confidence;
    report.quantile = kGridQuantiles[primaryGridIndex_];
    report.windowCapacity = sim::QueueCore::kWindowCapacity;
    for (size_t s = 0; s < shards_.size(); ++s) {
        // The calibration fields are writer-owned, so reading them
        // takes the shard lock — cold path, same as stats().
        std::lock_guard<std::mutex> lock(shards_[s]->writer);
        const auto keys =
            shards_[s]->keys.load();
        for (const auto &[key, entry] : *keys) {
            CalibrationRow row;
            row.machine = entry->machine;
            row.queue = entry->queue;
            row.bucket = entry->bucket;
            row.observations = entry->observations;
            row.finalized = entry->replay.finalized();
            row.scored = entry->replay.evaluated();
            row.hits = entry->replay.correct();
            row.infinite = entry->replay.infinite();
            row.windowCount = entry->replay.windowCount();
            row.windowHits = entry->replay.windowHits();
            if (row.scored > 0) {
                row.lifetimeCoverage =
                    static_cast<double>(row.hits) /
                    static_cast<double>(row.scored);
            }
            const obs::CalibrationVerdict verdict =
                obs::assessCalibration(row.windowHits, row.windowCount,
                                       options_.confidence);
            row.windowCoverage = verdict.coverage;
            row.drift = verdict.drift;
            row.pValue = verdict.pValue;
            row.failing = verdict.failing;
            report.rows.push_back(std::move(row));
        }
    }
    std::sort(report.rows.begin(), report.rows.end(),
              [](const CalibrationRow &a, const CalibrationRow &b) {
                  return keyString(a.machine, a.queue, a.bucket) <
                         keyString(b.machine, b.queue, b.bucket);
              });
    for (const CalibrationRow &row : report.rows) {
        if (row.windowCount == 0)
            continue;
        ++report.scoredEntries;
        if (row.failing)
            ++report.failingEntries;
        if (report.worstCoverage < 0.0 ||
            row.windowCoverage < report.worstCoverage)
            report.worstCoverage = row.windowCoverage;
        report.maxUndercoverage = std::max(
            report.maxUndercoverage,
            options_.confidence - row.windowCoverage);
    }
    QDEL_OBS({
        obs::CalibrationMetrics &metrics = obs::calibrationMetrics();
        metrics.entries.set(
            static_cast<double>(report.scoredEntries));
        metrics.failingEntries.set(
            static_cast<double>(report.failingEntries));
        metrics.worstCoverage.set(report.worstCoverage);
        metrics.maxUndercoverage.set(report.maxUndercoverage);
    });
    return report;
}

BoundRegistry::ShardInfo
BoundRegistry::shardInfo(size_t s) const
{
    Shard &shard = *shards_[s];
    std::lock_guard<std::mutex> lock(shard.writer);
    ShardInfo info;
    const auto keys = shard.keys.load();
    info.entries = keys->size();
    info.pending = shard.pendingTotal;
    info.applied = shard.applied;
    info.rejected = shard.rejected;
    info.clients = shard.clientSeq.size();
    return info;
}

std::string
BoundRegistry::digest() const
{
    persist::StateWriter writer;
    for (size_t s = 0; s < shards_.size(); ++s) {
        std::unique_lock<std::mutex> lock(shards_[s]->writer);
        if (auto saved = saveShard(s, writer); !saved.ok())
            panic("BoundRegistry::digest: " + saved.error().reason);
    }
    const uint32_t crc =
        persist::crc32(writer.bytes().data(), writer.bytes().size());
    char hex[16];
    std::snprintf(hex, sizeof(hex), "%08x", crc);
    return hex;
}

} // namespace serve
} // namespace qdel
