/**
 * @file
 * Checkpoint directory management and the crash-recovery ladder.
 *
 * Directory layout (one serve shard / one replay run per directory):
 *
 *   snapshot-0000000001.qds   versioned checksummed full-state snapshot
 *   wal-0000000001.qdw        events *after* snapshot 1
 *   wal-0000000000.qdw        events after cold start, before snapshot 1
 *   *.tmp                     in-flight atomic writes (ignored, cleaned)
 *
 * Invariants: snapshot N is published atomically before wal-N exists;
 * wal-N contains every event applied after snapshot N (in order; a
 * replay, whose trace is its log, applies none, so its segments stay
 * header-only); the
 * newest keepSnapshots snapshots and every WAL segment needed to roll
 * any of them forward are retained, older files are pruned.
 *
 * Recovery descends a ladder, logging a reason for every rung it
 * rejects:
 *   1. newest snapshot + its WAL chain (wal-N, wal-N+1, ...);
 *   2. each older retained snapshot + its WAL chain;
 *   3. WAL-only replay from cold start (when wal-0 is still present);
 *   4. cold start.
 * Every rung lands on a *consistent prefix* of the true history: the
 * fault-injection property tests verify that no injected fault —
 * short write, torn write, bit flip, ENOSPC, or a kill between temp
 * write and rename — can produce anything else.
 */

#ifndef QDEL_PERSIST_CHECKPOINT_HH
#define QDEL_PERSIST_CHECKPOINT_HH

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "persist/wal.hh"
#include "util/expected.hh"

namespace qdel {
namespace persist {

/** Where to persist. */
struct CheckpointConfig
{
    std::string dir;           //!< Checkpoint directory (created).
    size_t keepSnapshots = 2;  //!< Retained snapshot generations (>= 1).

    /** Check dir is set and keepSnapshots >= 1. */
    Expected<Unit> validate() const;
};

/** Owns the current WAL segment and the snapshot rotation. */
class CheckpointManager
{
  public:
    /**
     * Scan (and create) the directory: find existing snapshots/WALs,
     * delete leftover *.tmp files, position the sequence counter after
     * the newest existing generation. Does not open a WAL segment —
     * call startWal() (cold start) or checkpoint() (which rotates to a
     * fresh segment) before appendRecord().
     */
    static Expected<CheckpointManager> open(const CheckpointConfig &config);

    CheckpointManager(CheckpointManager &&) = default;
    CheckpointManager &operator=(CheckpointManager &&) = default;

    /** @return true when the scan found any snapshot or WAL segment. */
    bool hasExistingState() const { return hasExisting_; }

    /** Newest published snapshot sequence number (0 = none yet). */
    uint64_t currentSeq() const { return seq_; }

    /** Snapshot sequence numbers found on disk, newest first. */
    std::vector<uint64_t> snapshotSeqs() const;

    /** WAL segment sequence numbers found on disk, oldest first. */
    std::vector<uint64_t> walSeqs() const;

    std::string snapshotPath(uint64_t seq) const;
    std::string walPath(uint64_t seq) const;

    /** Begin wal-(currentSeq) truncating; cold-start entry point. */
    Expected<Unit> startWal();

    /**
     * Publish @p payload as snapshot currentSeq()+1, rotate to a fresh
     * WAL segment, and prune generations beyond keepSnapshots.
     */
    Expected<Unit> checkpoint(const std::string &payload);

    /** Append one record carrying @p payload to the open WAL segment.
     *  Never fsyncs: syncPending() and checkpoint() are the only sync
     *  points, and a crash before them loses only an unsynced tail
     *  (still a consistent prefix). */
    Expected<Unit> appendRecord(std::string_view payload);

    /** Records appended since the last sync (a checkpoint's rotation
     *  syncs, so it resets this too). */
    size_t unsyncedRecords() const { return recordsSinceSync_; }

    /**
     * fsync the open WAL segment if records were appended since the
     * last sync; a no-op otherwise. This is the group commit: one
     * fsync covers every record appended before it, and the number of
     * records it covered is observed into
     * qdel_persist_group_commit_events.
     */
    Expected<Unit> syncPending();

  private:
    CheckpointManager() = default;

    CheckpointConfig config_;
    uint64_t seq_ = 0;
    bool hasExisting_ = false;
    std::vector<uint64_t> snapshots_;  //!< Sorted ascending.
    std::vector<uint64_t> wals_;       //!< Sorted ascending.
    std::optional<WalWriter> wal_;
    size_t recordsSinceSync_ = 0;
};

/** Which rung of the recovery ladder produced the restored state. */
enum class RecoverySource {
    ColdStart,
    LatestSnapshot,
    PreviousSnapshot,
    WalOnly,
};

/** Human-readable name of a recovery source. */
const char *recoverySourceName(RecoverySource source);

/** What recovery did, for logging and for the tests. */
struct RecoveryReport
{
    RecoverySource source = RecoverySource::ColdStart;
    uint64_t snapshotSeq = 0;        //!< Snapshot applied (0 = none).
    size_t walRecordsApplied = 0;
    size_t walTailBytesDropped = 0;  //!< Torn/corrupt tail bytes skipped.
    std::vector<std::string> notes;  //!< One line per ladder decision.
};

/**
 * Run the recovery ladder over @p config.dir.
 *
 * @param applySnapshot Parse-and-commit a snapshot payload into the
 *        caller's state. Must be transactional: on error the state
 *        must be exactly what it was before the call (parse into
 *        locals, commit last), because the ladder will try the next
 *        rung on the same target.
 * @param applyWalRecord Apply one WAL record's payload (a serve
 *        shard decodes and applies the event it carries); pass nullptr
 *        when the caller's snapshots are self-contained (the replay
 *        simulator, whose trace is its input log). With nullptr the
 *        WAL-only rung is skipped too.
 *
 * Returns a report describing the rung that succeeded — ColdStart
 * with notes when nothing was salvageable. A hard error is returned
 * only when the directory itself cannot be read.
 */
Expected<RecoveryReport> recoverState(
    const CheckpointConfig &config,
    const std::function<Expected<Unit>(const std::string &payload)>
        &applySnapshot,
    const std::function<Expected<Unit>(std::string_view payload)>
        &applyWalRecord);

} // namespace persist
} // namespace qdel

#endif // QDEL_PERSIST_CHECKPOINT_HH
