/**
 * @file
 * BoundService: the bound registry wired to the persistence ladder.
 *
 * Durability model — one checkpoint directory per shard:
 *
 *   stateDir/shard-0000/snapshot-NNNN.qds + wal-NNNN.qdw
 *   stateDir/shard-0001/...
 *
 * Each shard is an independent WAL domain. Ingest is two steps, the
 * group commit:
 *
 *  - stage() takes the shard's writer lock, writes the event (encoded
 *    with the wire codec) to the shard's WAL as one record, *then*
 *    applies it to the registry — write before mutate, under one lock
 *    so log order is apply order — and maybe checkpoints. It does not
 *    fsync.
 *  - commit(shard) takes the lock again and fsyncs the shard's WAL
 *    once syncEveryRecords records are unsynced (1: any; 0: never,
 *    only checkpoints sync). One fsync covers every record staged
 *    before it, from any thread, so a commit that finds nothing
 *    unsynced was already covered by a concurrent one.
 *
 * ingest() is stage + commit of one event. The server stages every
 * event a reactor wake drained, commits each dirtied shard once, and
 * only then sends the events' replies, so an ack still means durable
 * (at syncEveryRecords = 1). An applied event is visible to readers
 * before its commit; a crash in that window loses only events whose
 * ack was never sent.
 *
 * Fail-stop: a WAL write, fsync or checkpoint error marks the shard
 * failed. Every later stage() or commit() on it returns an error —
 * never a dedup ack for state that may not be on disk — until the
 * process restarts and recovers from what the disk holds. The fsync is
 * not retried: a failed fsync may already have dropped the kernel's
 * dirty pages.
 *
 * Because every registry mutation is a deterministic function of the
 * per-shard event sequence, replaying a shard's WAL against its
 * snapshot reconstructs the shard bit-identically; a SIGKILLed server
 * therefore resumes with byte-identical state (the kill/resume fault
 * sweep proves it).
 *
 * Multi-shard coordination: shards checkpoint independently (count
 * triggered), and checkpointAll() walks every shard under its lock for
 * an explicit consistent cut — consistent because no event spans two
 * shards. Recovery runs the 4-rung ladder per shard and then
 * re-checkpoints, so one corrupted shard directory degrades only that
 * shard's tail, never its neighbours.
 *
 * With an empty stateDir the service runs ephemeral (no disk at all) —
 * that is what the throughput bench measures.
 */

#ifndef QDEL_SERVE_SERVICE_HH
#define QDEL_SERVE_SERVICE_HH

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "persist/checkpoint.hh"
#include "serve/bound_registry.hh"
#include "serve/wire.hh"
#include "util/expected.hh"

namespace qdel {
namespace serve {

struct ServiceConfig
{
    BoundRegistry::Options registry;

    /** Root of the per-shard checkpoint tree; "" = ephemeral. */
    std::string stateDir;

    /** Checkpoint a shard every this many ingested events (0 = only
     *  explicit checkpointAll() calls). */
    size_t checkpointEveryEvents = 0;

    /** Retained snapshot generations per shard. */
    size_t keepSnapshots = 2;
    /** commit() fsyncs a shard once this many of its records are
     *  unsynced; 0 leaves syncing to checkpoints. */
    size_t syncEveryRecords = 1;

    /**
     * Admission control: shed Submit events once a shard holds this
     * many pending (submitted, not yet started) jobs. 0 = unlimited.
     * Deliberately NOT part of the registry Options config echo —
     * retuning the knob must not invalidate saved state.
     */
    uint64_t maxPendingPerShard = 0;

    /** Retry-After advertised on shed responses, seconds. */
    uint32_t shedRetryAfterSeconds = 1;

    Expected<Unit> validate() const;
};

class BoundService
{
  public:
    /**
     * Validate, create/scan the shard directories, run recovery on
     * each, and re-checkpoint recovered shards. On success the service
     * is ready to ingest.
     */
    static Expected<std::unique_ptr<BoundService>>
    open(const ServiceConfig &config);

    const ServiceConfig &config() const { return config_; }
    bool durable() const { return !stores_.empty(); }
    size_t shardCount() const { return registry_->shardCount(); }

    /**
     * Durably ingest one event: stage() it, then commit() its shard.
     * Returns the staged outcome, or the error of either step.
     */
    Expected<ApplyOutcome> ingest(const JobEvent &event);

    /**
     * The first half of ingest(), under the shard lock: failed-shard
     * check, dedup check, admission check, WAL write, apply, maybe
     * checkpoint. Sets @p shard to the event's shard before anything
     * can fail. The outcome reports whether the (logged) event was
     * applied or deterministically rejected, whether it was a
     * deduplicated retry (deduped, not logged or re-applied), or
     * whether admission control shed it (shed, not logged — retry
     * later); an error means the shard is failed or the WAL write
     * itself failed, and the client must retry. Dedup is checked
     * before shedding so a retried event whose original was processed
     * never gets a spurious shed; neither dedup hits nor sheds touch
     * the WAL or the digest, which is what keeps faulty and
     * fault-free runs byte-identical.
     *
     * The event is applied (and visible to readers) on return, but it
     * is durable only once commit(*shard) has returned ok.
     */
    Expected<ApplyOutcome> stage(const JobEvent &event, size_t *shard);

    /**
     * The second half of ingest(): under shard @p shard's lock, fsync
     * its WAL if syncEveryRecords or more records are unsynced (never
     * when syncEveryRecords is 0). Ok means every event staged on the
     * shard before the call is covered by the sync rule. An fsync
     * error fails the shard; a failed shard returns its error. A
     * no-op when ephemeral.
     */
    Expected<Unit> commit(size_t shard);

    /** Number of failed shards (O(1); /healthz reads it). */
    size_t
    failedShards() const
    {
        return failedShards_.load(std::memory_order_relaxed);
    }

    /** Lock-free read path; see BoundRegistry::query(). */
    BoundAnswer
    query(const BoundQuery &query) const
    {
        return registry_->query(query);
    }

    /** Batched lock-free read path; see BoundRegistry::queryBatch(). */
    void
    queryBatch(const BoundQuery *queries, size_t count, BoundAnswer *answers,
               BoundRegistry::QueryScratch &scratch) const
    {
        registry_->queryBatch(queries, count, answers, scratch);
    }

    /** Snapshot every shard under its lock (no-op when ephemeral). */
    Expected<Unit> checkpointAll();

    /** fsync every WAL segment with unsynced records (no-op when
     *  ephemeral). */
    Expected<Unit> syncAll();

    const BoundRegistry &registry() const { return *registry_; }

    /** Per-shard processed counts + entries (resume fencing). */
    ServeStats stats() const { return registry_->stats(); }

    /** Hex digest of the full registry state. */
    std::string digest() const { return registry_->digest(); }

    /** Recovery reports, one per shard (empty when ephemeral). */
    const std::vector<persist::RecoveryReport> &
    recoveries() const
    {
        return recoveries_;
    }

    /** One shard's introspection row for GET /debug/shards. */
    struct ShardDebug
    {
        BoundRegistry::ShardInfo info;
        /** Events WAL-logged since the shard's last checkpoint — the
         *  replay depth a crash right now would pay. 0 when ephemeral. */
        uint64_t walSinceCheckpoint = 0;
        /** Why the shard failed; empty while it is healthy. */
        std::string failure;
    };

    /** Per-shard registry counters + WAL depth (cold path: takes each
     *  shard lock briefly, twice). */
    std::vector<ShardDebug> debugShards() const;

  private:
    BoundService() = default;

    Expected<Unit> checkpointShardLocked(size_t s);

    /** The error a failed shard @p s answers with (lock held). */
    ParseError failedErrorLocked(size_t s) const;

    /** Fail shard @p s with @p error (lock held); returns the error. */
    ParseError failShardLocked(size_t s, const ParseError &error);

    ServiceConfig config_;
    std::unique_ptr<BoundRegistry> registry_;
    /** One manager per shard; empty in ephemeral mode. */
    std::vector<std::unique_ptr<persist::CheckpointManager>> stores_;
    std::vector<size_t> eventsSinceCheckpoint_;
    /** Per shard, why it failed ("" = healthy); under the shard lock. */
    std::vector<std::string> failures_;
    std::atomic<size_t> failedShards_{0};
    std::vector<persist::RecoveryReport> recoveries_;
};

} // namespace serve
} // namespace qdel

#endif // QDEL_SERVE_SERVICE_HH
