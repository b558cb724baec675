/**
 * @file
 * Implementation of the durable bound service.
 */

#include "serve/service.hh"

#include <cstdio>

#include "core/predictor_factory.hh"
#include "obs/domain_metrics.hh"
#include "obs/obs.hh"
#include "persist/state_codec.hh"
#include "util/logging.hh"

namespace qdel {
namespace serve {

namespace {

std::string
shardDir(const std::string &root, size_t s)
{
    char suffix[32];
    std::snprintf(suffix, sizeof(suffix), "/shard-%04zu", s);
    return root + suffix;
}

} // namespace

Expected<Unit>
ServiceConfig::validate() const
{
    if (auto ok = registry.validate(); !ok.ok())
        return ok.error();
    if (keepSnapshots < 1) {
        return ParseError{"", 0, "keepSnapshots",
                          "must retain at least one snapshot"};
    }
    if (!stateDir.empty()) {
        // Durable mode snapshots predictor state, so the method must
        // support the persistence hooks; probe one instance up front
        // instead of failing at the first checkpoint.
        core::PredictorOptions predictor_options;
        predictor_options.quantile = registry.quantile;
        predictor_options.confidence = registry.confidence;
        auto probe =
            core::tryMakePredictor(registry.method, predictor_options);
        if (!probe.ok())
            return probe.error();
        persist::StateWriter writer;
        if (auto saved = probe.value()->saveState(writer); !saved.ok()) {
            return ParseError{"", 0, "method",
                              "method '" + registry.method +
                                  "' does not support state persistence"
                                  " (required with a state dir)"};
        }
    }
    return Unit{};
}

Expected<std::unique_ptr<BoundService>>
BoundService::open(const ServiceConfig &config)
{
    if (auto ok = config.validate(); !ok.ok())
        return ok.error();

    auto service = std::unique_ptr<BoundService>(new BoundService());
    service->config_ = config;
    service->registry_ = std::make_unique<BoundRegistry>(config.registry);
    if (config.stateDir.empty())
        return service;

    const size_t shards = service->registry_->shardCount();
    service->stores_.reserve(shards);
    service->eventsSinceCheckpoint_.assign(shards, 0);
    service->failures_.assign(shards, std::string());
    service->recoveries_.reserve(shards);
    for (size_t s = 0; s < shards; ++s) {
        persist::CheckpointConfig shard_config;
        shard_config.dir = shardDir(config.stateDir, s);
        shard_config.keepSnapshots = config.keepSnapshots;

        auto lock = service->registry_->lockShard(s);
        auto recovered = persist::recoverState(
            shard_config,
            [&](const std::string &payload) -> Expected<Unit> {
                persist::StateReader reader(payload, shard_config.dir +
                                                        "/snapshot");
                if (auto ok = service->registry_->loadShard(s, reader);
                    !ok.ok())
                    return ok.error();
                return reader.expectEnd();
            },
            [&](std::string_view payload) -> Expected<Unit> {
                auto event = decodeEvent(payload);
                if (!event.ok())
                    return event.error();
                // Rejections are deterministic and counted; replay
                // must not fail on them.
                service->registry_->applyLocked(s, event.value());
                return Unit{};
            });
        if (!recovered.ok())
            return recovered.error();
        service->recoveries_.push_back(recovered.value());

        auto manager = persist::CheckpointManager::open(shard_config);
        if (!manager.ok())
            return manager.error();
        service->stores_.push_back(std::make_unique<
                                   persist::CheckpointManager>(
            std::move(manager).value()));

        if (service->stores_[s]->hasExistingState()) {
            // Fold the replayed WAL into a fresh snapshot so the next
            // crash recovers from one read instead of a long replay.
            if (auto ok = service->checkpointShardLocked(s); !ok.ok())
                return ok.error();
        } else {
            if (auto ok = service->stores_[s]->startWal(); !ok.ok())
                return ok.error();
        }
    }
    return service;
}

Expected<ApplyOutcome>
BoundService::ingest(const JobEvent &event)
{
    size_t s = 0;
    auto outcome = stage(event, &s);
    if (!outcome.ok())
        return outcome;
    if (auto ok = commit(s); !ok.ok())
        return ok.error();
    return outcome;
}

Expected<ApplyOutcome>
BoundService::stage(const JobEvent &event, size_t *shard)
{
    const size_t s = registry_->shardForEvent(event);
    *shard = s;
    auto lock = registry_->lockShard(s);
    // A failed shard's memory may hold events the disk does not; it
    // must not answer anything, a dedup hit included.
    if (durable() && !failures_[s].empty())
        return failedErrorLocked(s);
    // Dedup before shed: a retry of an already-processed event must
    // report its (deterministic) prior outcome, never a fresh shed.
    if (registry_->isDuplicateLocked(s, event)) {
        ApplyOutcome outcome;
        outcome.deduped = true;
        QDEL_OBS(obs::serveMetrics().dedupHits.inc());
        return outcome;
    }
    if (event.kind == EventKind::Submit &&
        config_.maxPendingPerShard > 0 &&
        registry_->pendingCountLocked(s) >= config_.maxPendingPerShard) {
        ApplyOutcome outcome;
        outcome.shed = true;
        outcome.retryAfterSeconds = config_.shedRetryAfterSeconds;
        QDEL_OBS(obs::serveMetrics().shedTotal.inc());
        return outcome;
    }
    if (durable()) {
        if (auto ok = stores_[s]->appendRecord(encodeEvent(event));
            !ok.ok())
            return failShardLocked(s, ok.error());
    }
    const ApplyOutcome outcome = registry_->applyLocked(s, event);
    if (durable() && config_.checkpointEveryEvents > 0 &&
        ++eventsSinceCheckpoint_[s] >= config_.checkpointEveryEvents) {
        if (auto ok = checkpointShardLocked(s); !ok.ok())
            return failShardLocked(s, ok.error());
    }
    // Traced ingests mark the service layer too, so the drained event
    // stream shows reactor -> service -> registry for one request.
    QDEL_OBS({
        if (event.traceId != 0) {
            obs::events().emit(obs::EventType::Span,
                               static_cast<double>(event.jobId),
                               static_cast<double>(s), "service_ingest",
                               event.traceId);
        }
    });
    return outcome;
}

Expected<Unit>
BoundService::commit(size_t s)
{
    if (!durable())
        return Unit{};
    auto lock = registry_->lockShard(s);
    if (!failures_[s].empty())
        return failedErrorLocked(s);
    const size_t every = config_.syncEveryRecords;
    if (every == 0 || stores_[s]->unsyncedRecords() < every)
        return Unit{};
    if (auto ok = stores_[s]->syncPending(); !ok.ok())
        return failShardLocked(s, ok.error());
    return Unit{};
}

ParseError
BoundService::failedErrorLocked(size_t s) const
{
    return ParseError{shardDir(config_.stateDir, s), 0, "shard",
                      "shard " + std::to_string(s) + " failed (" +
                          failures_[s] +
                          "); restart the service to recover it"};
}

ParseError
BoundService::failShardLocked(size_t s, const ParseError &error)
{
    if (failures_[s].empty()) {
        failures_[s] = error.str();
        failedShards_.fetch_add(1, std::memory_order_relaxed);
        warn("serve: shard ", s, " failed and takes no more writes: ",
             failures_[s]);
    }
    return error;
}

std::vector<BoundService::ShardDebug>
BoundService::debugShards() const
{
    std::vector<ShardDebug> out;
    const size_t shards = registry_->shardCount();
    out.reserve(shards);
    for (size_t s = 0; s < shards; ++s) {
        ShardDebug row;
        row.info = registry_->shardInfo(s);
        if (durable()) {
            // eventsSinceCheckpoint_ is written under the shard lock;
            // take it (shardInfo above released its hold) so the read
            // is race-free. The two reads are not one atomic cut —
            // fine for an introspection endpoint.
            auto lock = registry_->lockShard(s);
            row.walSinceCheckpoint = eventsSinceCheckpoint_[s];
            row.failure = failures_[s];
        }
        out.push_back(row);
    }
    return out;
}

Expected<Unit>
BoundService::checkpointShardLocked(size_t s)
{
    persist::StateWriter writer;
    if (auto saved = registry_->saveShard(s, writer); !saved.ok())
        return saved.error();
    if (auto ok = stores_[s]->checkpoint(writer.take()); !ok.ok())
        return ok.error();
    eventsSinceCheckpoint_[s] = 0;
    return Unit{};
}

Expected<Unit>
BoundService::checkpointAll()
{
    if (!durable())
        return Unit{};
    for (size_t s = 0; s < registry_->shardCount(); ++s) {
        auto lock = registry_->lockShard(s);
        if (!failures_[s].empty())
            return failedErrorLocked(s);
        if (auto ok = checkpointShardLocked(s); !ok.ok())
            return failShardLocked(s, ok.error());
    }
    return Unit{};
}

Expected<Unit>
BoundService::syncAll()
{
    if (!durable())
        return Unit{};
    for (size_t s = 0; s < registry_->shardCount(); ++s) {
        auto lock = registry_->lockShard(s);
        if (!failures_[s].empty())
            return failedErrorLocked(s);
        if (auto ok = stores_[s]->syncPending(); !ok.ok())
            return failShardLocked(s, ok.error());
    }
    return Unit{};
}

} // namespace serve
} // namespace qdel
