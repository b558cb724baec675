/**
 * @file
 * Implementation of checkpoint rotation and the recovery ladder.
 */

#include "persist/checkpoint.hh"

#include <algorithm>
#include <cstdio>

#include "obs/domain_metrics.hh"
#include "obs/obs.hh"
#include "persist/io.hh"
#include "persist/snapshot.hh"
#include "util/logging.hh"

namespace qdel {
namespace persist {

namespace {

constexpr char kSnapshotPrefix[] = "snapshot-";
constexpr char kSnapshotSuffix[] = ".qds";
constexpr char kWalPrefix[] = "wal-";
constexpr char kWalSuffix[] = ".qdw";

std::string
sequencedName(const char *prefix, uint64_t seq, const char *suffix)
{
    char digits[32];
    std::snprintf(digits, sizeof(digits), "%010llu",
                  static_cast<unsigned long long>(seq));
    return std::string(prefix) + digits + suffix;
}

/** Parse "<prefix><digits><suffix>" into the digits, or nullopt. */
std::optional<uint64_t>
parseSequencedName(const std::string &name, const char *prefix,
                   const char *suffix)
{
    const std::string p(prefix);
    const std::string s(suffix);
    if (name.size() <= p.size() + s.size())
        return std::nullopt;
    if (name.compare(0, p.size(), p) != 0)
        return std::nullopt;
    if (name.compare(name.size() - s.size(), s.size(), s) != 0)
        return std::nullopt;
    const std::string digits =
        name.substr(p.size(), name.size() - p.size() - s.size());
    uint64_t value = 0;
    for (char c : digits) {
        if (c < '0' || c > '9')
            return std::nullopt;
        value = value * 10 + static_cast<uint64_t>(c - '0');
    }
    return value;
}

} // namespace

Expected<Unit>
CheckpointConfig::validate() const
{
    if (dir.empty())
        return ParseError{"", 0, "dir", "checkpoint directory not set"};
    if (keepSnapshots == 0) {
        return ParseError{dir, 0, "keepSnapshots",
                          "must retain at least one snapshot"};
    }
    return Unit{};
}

Expected<CheckpointManager>
CheckpointManager::open(const CheckpointConfig &config)
{
    if (auto valid = config.validate(); !valid.ok())
        return valid.error();
    if (auto ok = ensureDirectory(config.dir); !ok.ok())
        return ok.error();
    auto names = listDirectory(config.dir);
    if (!names.ok())
        return names.error();

    CheckpointManager manager;
    manager.config_ = config;
    for (const std::string &name : names.value()) {
        if (auto seq =
                parseSequencedName(name, kSnapshotPrefix, kSnapshotSuffix)) {
            manager.snapshots_.push_back(*seq);
        } else if (auto wal_seq =
                       parseSequencedName(name, kWalPrefix, kWalSuffix)) {
            manager.wals_.push_back(*wal_seq);
        } else if (name.size() > 4 &&
                   name.compare(name.size() - 4, 4, ".tmp") == 0) {
            // A crash mid-atomic-write left a temp file; it was never
            // published, so it is garbage by construction.
            if (auto ok = removeFile(config.dir + "/" + name); !ok.ok())
                warn("checkpoint: cannot clean ", name, ": ",
                     ok.error().str());
        }
    }
    std::sort(manager.snapshots_.begin(), manager.snapshots_.end());
    std::sort(manager.wals_.begin(), manager.wals_.end());
    manager.hasExisting_ =
        !manager.snapshots_.empty() || !manager.wals_.empty();
    uint64_t seq = 0;
    if (!manager.snapshots_.empty())
        seq = manager.snapshots_.back();
    if (!manager.wals_.empty())
        seq = std::max(seq, manager.wals_.back());
    manager.seq_ = seq;
    return manager;
}

std::vector<uint64_t>
CheckpointManager::snapshotSeqs() const
{
    std::vector<uint64_t> seqs(snapshots_.rbegin(), snapshots_.rend());
    return seqs;
}

std::vector<uint64_t>
CheckpointManager::walSeqs() const
{
    return wals_;
}

std::string
CheckpointManager::snapshotPath(uint64_t seq) const
{
    return config_.dir + "/" +
           sequencedName(kSnapshotPrefix, seq, kSnapshotSuffix);
}

std::string
CheckpointManager::walPath(uint64_t seq) const
{
    return config_.dir + "/" + sequencedName(kWalPrefix, seq, kWalSuffix);
}

Expected<Unit>
CheckpointManager::startWal()
{
    auto writer = WalWriter::create(walPath(seq_), seq_);
    if (!writer.ok())
        return writer.error();
    wal_.emplace(std::move(writer).value());
    if (std::find(wals_.begin(), wals_.end(), seq_) == wals_.end()) {
        wals_.push_back(seq_);
        std::sort(wals_.begin(), wals_.end());
    }
    recordsSinceSync_ = 0;
    return Unit{};
}

Expected<Unit>
CheckpointManager::checkpoint(const std::string &payload)
{
    QDEL_OBS_SPAN(span, obs::persistMetrics().checkpointSeconds,
                  obs::EventType::Span, "checkpoint");
    // Make the outgoing WAL chain durable before the snapshot that
    // supersedes it is published, then close the segment for good.
    if (wal_) {
        if (auto ok = wal_->sync(); !ok.ok())
            return ok.error();
        if (auto ok = wal_->close(); !ok.ok())
            return ok.error();
        wal_.reset();
    }

    const uint64_t new_seq = seq_ + 1;
    if (auto ok = writeSnapshotFile(snapshotPath(new_seq), payload);
        !ok.ok())
        return ok.error();
    snapshots_.push_back(new_seq);
    seq_ = new_seq;
    hasExisting_ = true;
    QDEL_OBS({
        obs::persistMetrics().checkpointsWritten.inc();
        obs::persistMetrics().checkpointBytes.observe(
            static_cast<double>(payload.size()));
        obs::persistMetrics().walSegmentBytes.set(0.0);
        obs::events().emit(obs::EventType::CheckpointWritten,
                           static_cast<double>(new_seq),
                           static_cast<double>(payload.size()));
    });

    if (auto ok = startWal(); !ok.ok())
        return ok.error();

    // Prune: keep the newest keepSnapshots snapshots and every WAL
    // segment that can still roll one of them (or a cold start, while
    // fewer than keepSnapshots snapshots exist) forward. Best effort —
    // a failed unlink costs disk space, not correctness.
    if (snapshots_.size() > config_.keepSnapshots) {
        while (snapshots_.size() > config_.keepSnapshots) {
            const uint64_t victim = snapshots_.front();
            if (auto ok = removeFile(snapshotPath(victim)); !ok.ok())
                warn("checkpoint: cannot prune snapshot ", victim, ": ",
                     ok.error().str());
            snapshots_.erase(snapshots_.begin());
        }
        const uint64_t oldest_kept = snapshots_.front();
        while (!wals_.empty() && wals_.front() < oldest_kept) {
            if (auto ok = removeFile(walPath(wals_.front())); !ok.ok())
                warn("checkpoint: cannot prune WAL ", wals_.front(), ": ",
                     ok.error().str());
            wals_.erase(wals_.begin());
        }
    }
    return Unit{};
}

Expected<Unit>
CheckpointManager::appendRecord(std::string_view payload)
{
    if (!wal_)
        panic("CheckpointManager::appendRecord without an open WAL "
              "segment (call startWal() or checkpoint() first)");
    if (auto ok = wal_->append(payload); !ok.ok())
        return ok.error();
    QDEL_OBS({
        obs::persistMetrics().walAppends.inc();
        obs::persistMetrics().walSegmentBytes.set(
            static_cast<double>(wal_->bytesWritten()));
        obs::events().emit(obs::EventType::WalAppend,
                           static_cast<double>(payload.size()));
    });
    ++recordsSinceSync_;
    return Unit{};
}

Expected<Unit>
CheckpointManager::syncPending()
{
    if (!wal_ || recordsSinceSync_ == 0)
        return Unit{};
    QDEL_OBS(obs::persistMetrics().groupCommitEvents.observe(
        static_cast<double>(recordsSinceSync_)));
    recordsSinceSync_ = 0;
    return wal_->sync();
}

const char *
recoverySourceName(RecoverySource source)
{
    switch (source) {
    case RecoverySource::ColdStart:
        return "cold-start";
    case RecoverySource::LatestSnapshot:
        return "latest-snapshot";
    case RecoverySource::PreviousSnapshot:
        return "previous-snapshot";
    case RecoverySource::WalOnly:
        return "wal-only";
    }
    return "cold-start";
}

namespace {

/** Ladder rung number of @p source, as exposed by the rung gauge. */
[[maybe_unused]] int
recoveryRung(RecoverySource source)
{
    switch (source) {
    case RecoverySource::LatestSnapshot:   return 1;
    case RecoverySource::PreviousSnapshot: return 2;
    case RecoverySource::WalOnly:          return 3;
    case RecoverySource::ColdStart:        return 4;
    }
    return 4;
}

/** Record which rung a completed recovery took. */
void
noteRecovery(const RecoveryReport &report)
{
    QDEL_OBS({
        const int rung = recoveryRung(report.source);
        obs::persistMetrics().recoveries.inc();
        obs::persistMetrics().recoveryRung.set(
            static_cast<double>(rung));
        obs::events().emit(
            obs::EventType::RecoveryRung, static_cast<double>(rung),
            static_cast<double>(report.walRecordsApplied),
            recoverySourceName(report.source));
    });
    (void)report;
}

/**
 * Roll @p report forward along the WAL chain starting at @p seq,
 * applying records until a segment is missing, rejected, or torn.
 */
void
applyWalChain(
    const CheckpointConfig &config, uint64_t seq,
    const std::function<Expected<Unit>(std::string_view payload)> &apply,
    RecoveryReport *report)
{
    for (uint64_t w = seq;; ++w) {
        const std::string path =
            config.dir + "/" + sequencedName(kWalPrefix, w, kWalSuffix);
        if (!pathExists(path)) {
            if (w == seq) {
                report->notes.push_back("wal segment " +
                                       std::to_string(w) +
                                       " absent; state is the snapshot");
            }
            return;
        }
        auto contents = readWalFile(path);
        if (!contents.ok()) {
            report->notes.push_back("wal segment " + std::to_string(w) +
                                    " rejected: " +
                                    contents.error().str());
            return;
        }
        if (contents.value().snapshotSeq != w) {
            report->notes.push_back(
                "wal segment " + std::to_string(w) +
                " header names snapshot " +
                std::to_string(contents.value().snapshotSeq) +
                "; chain stops");
            return;
        }
        for (const std::string &payload : contents.value().records) {
            if (auto ok = apply(payload); !ok.ok()) {
                report->notes.push_back(
                    "wal segment " + std::to_string(w) +
                    " replay stopped: " + ok.error().str());
                return;
            }
            ++report->walRecordsApplied;
        }
        if (contents.value().droppedTailBytes > 0) {
            report->walTailBytesDropped +=
                contents.value().droppedTailBytes;
            report->notes.push_back(
                "wal segment " + std::to_string(w) + " tail dropped (" +
                std::to_string(contents.value().droppedTailBytes) +
                " bytes): " + contents.value().note);
            return;
        }
    }
}

} // namespace

Expected<RecoveryReport>
recoverState(
    const CheckpointConfig &config,
    const std::function<Expected<Unit>(const std::string &payload)>
        &applySnapshot,
    const std::function<Expected<Unit>(std::string_view payload)>
        &applyWalRecord)
{
    if (auto valid = config.validate(); !valid.ok())
        return valid.error();

    RecoveryReport report;
    if (!pathExists(config.dir)) {
        report.notes.push_back("checkpoint directory '" + config.dir +
                               "' does not exist; cold start");
        noteRecovery(report);
        return report;
    }
    auto names = listDirectory(config.dir);
    if (!names.ok())
        return names.error();

    std::vector<uint64_t> snapshots;
    std::vector<uint64_t> wals;
    for (const std::string &name : names.value()) {
        if (auto seq =
                parseSequencedName(name, kSnapshotPrefix, kSnapshotSuffix))
            snapshots.push_back(*seq);
        else if (auto wal_seq =
                     parseSequencedName(name, kWalPrefix, kWalSuffix))
            wals.push_back(*wal_seq);
    }
    std::sort(snapshots.rbegin(), snapshots.rend());  // newest first
    std::sort(wals.begin(), wals.end());

    bool first_candidate = true;
    for (uint64_t seq : snapshots) {
        const std::string path =
            config.dir + "/" +
            sequencedName(kSnapshotPrefix, seq, kSnapshotSuffix);
        auto payload = readSnapshotFile(path);
        if (!payload.ok()) {
            report.notes.push_back("snapshot " + std::to_string(seq) +
                                   " rejected: " + payload.error().str());
            first_candidate = false;
            continue;
        }
        if (auto ok = applySnapshot(payload.value()); !ok.ok()) {
            report.notes.push_back("snapshot " + std::to_string(seq) +
                                   " not applicable: " +
                                   ok.error().str());
            first_candidate = false;
            continue;
        }
        report.source = first_candidate ? RecoverySource::LatestSnapshot
                                        : RecoverySource::PreviousSnapshot;
        report.snapshotSeq = seq;
        report.notes.push_back("recovered from snapshot " +
                               std::to_string(seq));
        if (applyWalRecord)
            applyWalChain(config, seq, applyWalRecord, &report);
        noteRecovery(report);
        return report;
    }

    if (applyWalRecord && !wals.empty()) {
        if (wals.front() == 0) {
            report.source = RecoverySource::WalOnly;
            report.notes.push_back(
                "no usable snapshot; replaying WAL from cold start");
            applyWalChain(config, 0, applyWalRecord, &report);
            noteRecovery(report);
            return report;
        }
        report.notes.push_back(
            "no usable snapshot and WAL segments start at " +
            std::to_string(wals.front()) +
            " (cold-start segment pruned); cold start");
    } else if (snapshots.empty() && wals.empty()) {
        report.notes.push_back("checkpoint directory is empty; cold start");
    } else if (!snapshots.empty()) {
        report.notes.push_back("no snapshot usable; cold start");
    }
    noteRecovery(report);
    return report;
}

} // namespace persist
} // namespace qdel
