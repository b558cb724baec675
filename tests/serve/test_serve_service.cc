/**
 * @file
 * BoundService durability contract: WAL-before-mutate ingest, the
 * per-shard checkpoint tree, count-triggered checkpoints, recovery to
 * a byte-identical registry (digest equality) on every rung of the
 * recovery ladder, the ephemeral mode the throughput bench runs in, and
 * the group commit: stage() writes, commit() fsyncs by the sync rule,
 * and a failed fsync fails the shard.
 */

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.hh"
#include "persist/fault_injection.hh"
#include "persist/io.hh"
#include "serve/service.hh"
#include "serve/wire.hh"

namespace qdel {
namespace serve {
namespace {

std::string
freshDir(const std::string &name)
{
    const std::string dir = ::testing::TempDir() + "qdel_serve_" + name;
    std::filesystem::remove_all(dir);
    return dir;
}

/** Deterministic mixed-key event stream: submits then starts. */
std::vector<JobEvent>
eventStream(size_t jobs, uint32_t seed)
{
    std::mt19937 rng(seed);
    std::lognormal_distribution<double> wait(4.0, 1.0);
    const char *machines[] = {"m1", "m2"};
    const char *queues[] = {"normal", "express"};
    const int procs[] = {1, 8, 32, 128};
    std::vector<JobEvent> events;
    for (size_t i = 0; i < jobs; ++i) {
        JobEvent submit;
        submit.kind = EventKind::Submit;
        submit.jobId = i + 1;
        submit.time = 100.0 * static_cast<double>(i);
        submit.machine = machines[i % 2];
        submit.queue = queues[(i / 2) % 2];
        submit.procs = procs[i % 4];
        events.push_back(submit);
        JobEvent start = submit;
        start.kind = EventKind::Start;
        start.time = submit.time + wait(rng);
        events.push_back(start);
    }
    return events;
}

ServiceConfig
smallConfig(const std::string &state_dir)
{
    ServiceConfig config;
    config.registry.shards = 4;
    config.registry.epochSeconds = 10;
    config.registry.trainJobs = 25;
    config.stateDir = state_dir;
    return config;
}

/** (count, sum) of histogram @p name in the process registry. */
std::pair<uint64_t, double>
histogramNow(const std::string &name)
{
    for (const auto &histogram : obs::registry().snapshot().histograms) {
        if (histogram.name == name)
            return {histogram.count, histogram.sum};
    }
    return {0, 0.0};
}

uint64_t
fsyncsNow()
{
    return histogramNow("qdel_persist_fsync_seconds").first;
}

/** Submits for one key (so one shard), @p count of them from job
 *  @p first on. */
std::vector<JobEvent>
oneKeySubmits(uint64_t first, size_t count)
{
    std::vector<JobEvent> events;
    for (size_t i = 0; i < count; ++i) {
        JobEvent submit;
        submit.kind = EventKind::Submit;
        submit.jobId = first + i;
        submit.time = 10.0 * static_cast<double>(first + i);
        submit.machine = "m1";
        submit.queue = "normal";
        submit.procs = 8;
        submit.clientId = "group";
        submit.seq = first + i;
        events.push_back(submit);
    }
    return events;
}

TEST(ServiceConfig, ValidatePropagatesRegistryErrors)
{
    ServiceConfig config;
    config.registry.method = "no-such-method";
    EXPECT_FALSE(config.validate().ok());

    config = ServiceConfig{};
    config.keepSnapshots = 0;
    EXPECT_FALSE(config.validate().ok());
}

TEST(BoundService, EphemeralModeHasNoDiskFootprint)
{
    auto opened = BoundService::open(ServiceConfig{});
    ASSERT_TRUE(opened.ok());
    auto &service = *opened.value();
    EXPECT_FALSE(service.durable());
    EXPECT_TRUE(service.recoveries().empty());
    for (const auto &event : eventStream(30, 1)) {
        auto outcome = service.ingest(event);
        ASSERT_TRUE(outcome.ok());
        EXPECT_TRUE(outcome.value().applied);
    }
    EXPECT_TRUE(service.checkpointAll().ok());  // no-op, not an error
    EXPECT_TRUE(service.syncAll().ok());
    BoundQuery query;
    query.machine = "m1";
    query.queue = "normal";
    query.procs = 1;
    EXPECT_TRUE(service.query(query).known);
}

TEST(BoundService, DurableIngestRecoversByteIdentically)
{
    const std::string dir = freshDir("roundtrip");
    const auto events = eventStream(120, 2);
    std::string digest_before;
    {
        auto opened = BoundService::open(smallConfig(dir));
        ASSERT_TRUE(opened.ok());
        auto &service = *opened.value();
        EXPECT_TRUE(service.durable());
        for (const auto &event : events)
            ASSERT_TRUE(service.ingest(event).ok());
        digest_before = service.digest();
        // No checkpointAll: recovery must come from WAL replay alone.
    }
    auto reopened = BoundService::open(smallConfig(dir));
    ASSERT_TRUE(reopened.ok());
    auto &service = *reopened.value();
    EXPECT_EQ(service.digest(), digest_before);
    uint64_t replayed = 0;
    for (const auto &report : service.recoveries())
        replayed += report.walRecordsApplied;
    EXPECT_EQ(replayed, events.size());

    // Resume fencing data: per-shard processed counts must cover the
    // whole stream.
    uint64_t processed = 0;
    for (uint64_t count : service.stats().processedPerShard)
        processed += count;
    EXPECT_EQ(processed, events.size());
}

TEST(BoundService, CheckpointsFoldTheWalAndStillRecover)
{
    const std::string dir = freshDir("ckpt");
    auto config = smallConfig(dir);
    config.checkpointEveryEvents = 16;
    const auto events = eventStream(100, 3);
    std::string digest_before;
    {
        auto opened = BoundService::open(config);
        ASSERT_TRUE(opened.ok());
        auto &service = *opened.value();
        for (const auto &event : events)
            ASSERT_TRUE(service.ingest(event).ok());
        ASSERT_TRUE(service.checkpointAll().ok());
        digest_before = service.digest();
    }
    // Count triggers fired: at least one shard rotated snapshots.
    bool saw_snapshot = false;
    for (size_t s = 0; s < config.registry.shards; ++s) {
        char name[32];
        std::snprintf(name, sizeof(name), "/shard-%04zu", s);
        for (const auto &entry : std::filesystem::directory_iterator(
                 dir + name)) {
            const std::string file = entry.path().filename().string();
            if (file.rfind("snapshot-", 0) == 0)
                saw_snapshot = true;
        }
    }
    EXPECT_TRUE(saw_snapshot);

    auto reopened = BoundService::open(config);
    ASSERT_TRUE(reopened.ok());
    auto &service = *reopened.value();
    EXPECT_EQ(service.digest(), digest_before);
    for (const auto &report : service.recoveries()) {
        EXPECT_EQ(report.walRecordsApplied, 0u)
            << "checkpointAll left nothing to replay";
    }
}

TEST(BoundService, ReopenWithDifferentConfigRefusesSnapshots)
{
    // A snapshot saved under other serving parameters must never be
    // restored (its predictor state would be wrong for this config).
    // The ladder instead degrades to replaying the raw event WAL,
    // which *is* config-independent — recovery succeeds, but from the
    // wal-only rung with every event re-applied under the new config.
    const std::string dir = freshDir("foreign");
    const auto events = eventStream(40, 4);
    {
        auto opened = BoundService::open(smallConfig(dir));
        ASSERT_TRUE(opened.ok());
        auto &service = *opened.value();
        for (const auto &event : events)
            ASSERT_TRUE(service.ingest(event).ok());
        ASSERT_TRUE(service.checkpointAll().ok());
    }
    auto config = smallConfig(dir);
    config.registry.quantile = 0.90;  // different serving parameters
    auto reopened = BoundService::open(config);
    ASSERT_TRUE(reopened.ok());
    uint64_t replayed = 0;
    for (const auto &report : reopened.value()->recoveries()) {
        EXPECT_NE(report.source, persist::RecoverySource::LatestSnapshot);
        EXPECT_NE(report.source,
                  persist::RecoverySource::PreviousSnapshot);
        replayed += report.walRecordsApplied;
    }
    EXPECT_EQ(replayed, events.size());
}

TEST(BoundService, RecoveredServiceContinuesIdenticallyToUnkilledOne)
{
    // The core durability property behind the kill/resume sweep: a
    // service recovered mid-stream and fed the remaining events ends
    // bit-identical to one that saw the whole stream uninterrupted.
    const auto events = eventStream(150, 5);
    const size_t cut = 173;  // mid-stream, not on a job boundary

    const std::string ref_dir = freshDir("contref");
    auto reference = BoundService::open(smallConfig(ref_dir));
    ASSERT_TRUE(reference.ok());
    for (const auto &event : events)
        ASSERT_TRUE(reference.value()->ingest(event).ok());
    const std::string want = reference.value()->digest();

    const std::string dir = freshDir("contkill");
    {
        auto opened = BoundService::open(smallConfig(dir));
        ASSERT_TRUE(opened.ok());
        for (size_t i = 0; i < cut; ++i)
            ASSERT_TRUE(opened.value()->ingest(events[i]).ok());
        // Destroyed without checkpointAll: an orderly SIGKILL stand-in
        // (every record was WAL-logged and synced).
    }
    auto recovered = BoundService::open(smallConfig(dir));
    ASSERT_TRUE(recovered.ok());
    auto &service = *recovered.value();

    // Per-shard resume fencing, exactly as a driving client would.
    std::vector<uint64_t> skip = service.stats().processedPerShard;
    for (const auto &event : events) {
        const size_t s = service.registry().shardForEvent(event);
        if (skip[s] > 0) {
            --skip[s];
            continue;
        }
        ASSERT_TRUE(service.ingest(event).ok());
    }
    EXPECT_EQ(service.digest(), want);
}

/** Two shards that snapshot every 16 events: several generations
 *  each, plus a WAL tail, from one eventStream(100, ...). */
ServiceConfig
rungConfig(const std::string &state_dir)
{
    ServiceConfig config = smallConfig(state_dir);
    config.registry.shards = 2;
    config.checkpointEveryEvents = 16;
    return config;
}

/** Ingest @p events, then drop the service without a final
 *  checkpoint (a SIGKILL stand-in). @return the uninterrupted digest. */
std::string
driveAndKill(const ServiceConfig &config,
             const std::vector<JobEvent> &events)
{
    auto opened = BoundService::open(config);
    EXPECT_TRUE(opened.ok());
    if (!opened.ok())
        return {};
    for (const auto &event : events)
        EXPECT_TRUE(opened.value()->ingest(event).ok());
    return opened.value()->digest();
}

/** Paths of shard @p s's files named @p prefix*, oldest first. */
std::vector<std::string>
shardFiles(const std::string &state_dir, size_t s, const std::string &prefix)
{
    char name[32];
    std::snprintf(name, sizeof(name), "/shard-%04zu", s);
    std::vector<std::string> paths;
    for (const auto &entry :
         std::filesystem::directory_iterator(state_dir + name)) {
        if (entry.path().filename().string().rfind(prefix, 0) == 0)
            paths.push_back(entry.path().string());
    }
    std::sort(paths.begin(), paths.end());
    return paths;
}

/** Flip the bits of byte @p offset (from the end when negative). */
void
flipByte(const std::string &path, long offset, char mask)
{
    auto bytes = persist::readFileBytes(path);
    ASSERT_TRUE(bytes.ok());
    std::string corrupt = bytes.value();
    const size_t at = offset >= 0 ? size_t(offset)
                                  : corrupt.size() - size_t(-offset);
    ASSERT_LT(at, corrupt.size());
    corrupt[at] = static_cast<char>(corrupt[at] ^ mask);
    ASSERT_TRUE(persist::atomicWriteFile(path, corrupt).ok());
}

TEST(BoundService, RecoveryRungLatestSnapshotRollsItsWalForward)
{
    const std::string dir = freshDir("rung_latest");
    const std::string want =
        driveAndKill(rungConfig(dir), eventStream(100, 7));
    auto reopened = BoundService::open(rungConfig(dir));
    ASSERT_TRUE(reopened.ok());
    auto &service = *reopened.value();
    ASSERT_EQ(service.recoveries().size(), 2u);
    for (const auto &report : service.recoveries()) {
        EXPECT_EQ(report.source, persist::RecoverySource::LatestSnapshot);
        EXPECT_GT(report.walRecordsApplied, 0u);
    }
    EXPECT_EQ(service.digest(), want);
}

TEST(BoundService, RecoveryRungPreviousSnapshotAfterSnapshotCorruption)
{
    const std::string dir = freshDir("rung_previous");
    const std::string want =
        driveAndKill(rungConfig(dir), eventStream(100, 7));
    // Silently corrupt each shard's newest snapshot on disk.
    for (size_t s = 0; s < 2; ++s) {
        const auto snapshots = shardFiles(dir, s, "snapshot-");
        ASSERT_GE(snapshots.size(), 2u);
        flipByte(snapshots.back(), 40, 0x01);
    }
    // The longer WAL chain rolls the previous snapshot forward to the
    // same state: nothing is lost, only the rung changes.
    auto reopened = BoundService::open(rungConfig(dir));
    ASSERT_TRUE(reopened.ok());
    auto &service = *reopened.value();
    ASSERT_EQ(service.recoveries().size(), 2u);
    for (const auto &report : service.recoveries()) {
        EXPECT_EQ(report.source,
                  persist::RecoverySource::PreviousSnapshot);
        EXPECT_FALSE(report.notes.empty());
    }
    EXPECT_EQ(service.digest(), want);
}

TEST(BoundService, RecoveryRungWalOnlyWithoutAnySnapshot)
{
    const std::string dir = freshDir("rung_walonly");
    auto config = rungConfig(dir);
    config.checkpointEveryEvents = 0;  // never checkpoint
    const auto events = eventStream(100, 7);
    const std::string want = driveAndKill(config, events);
    auto reopened = BoundService::open(config);
    ASSERT_TRUE(reopened.ok());
    auto &service = *reopened.value();
    ASSERT_EQ(service.recoveries().size(), 2u);
    uint64_t replayed = 0;
    for (const auto &report : service.recoveries()) {
        EXPECT_EQ(report.source, persist::RecoverySource::WalOnly);
        replayed += report.walRecordsApplied;
    }
    EXPECT_EQ(replayed, events.size());
    EXPECT_EQ(service.digest(), want);
}

TEST(BoundService, RecoveryRungColdStartWhenNothingIsSalvageable)
{
    const std::string dir = freshDir("rung_cold");
    driveAndKill(rungConfig(dir), eventStream(100, 7));
    // Corrupt every snapshot; pruning has already removed wal-0, so
    // no rung can salvage anything.
    for (size_t s = 0; s < 2; ++s) {
        EXPECT_EQ(shardFiles(dir, s, "wal-0000000000").size(), 0u)
            << "pruning should have removed wal-0 by now";
        const auto snapshots = shardFiles(dir, s, "snapshot-");
        ASSERT_FALSE(snapshots.empty());
        for (const std::string &path : snapshots)
            flipByte(path, -1, '\xFF');
    }
    auto reopened = BoundService::open(rungConfig(dir));
    ASSERT_TRUE(reopened.ok());
    auto &service = *reopened.value();
    ASSERT_EQ(service.recoveries().size(), 2u);
    for (const auto &report : service.recoveries()) {
        EXPECT_EQ(report.source, persist::RecoverySource::ColdStart);
        EXPECT_FALSE(report.notes.empty());
    }
    auto fresh = BoundService::open(rungConfig(freshDir("rung_fresh")));
    ASSERT_TRUE(fresh.ok());
    EXPECT_EQ(service.digest(), fresh.value()->digest());
}

TEST(BoundService, CommitFsyncsByTheSyncRule)
{
    obs::setEnabled(true);
    struct Case
    {
        size_t syncEvery;
        size_t staged;
        uint64_t fsyncs;  //!< Expected from one commit.
    };
    const Case cases[] = {
        {1, 1, 1}, {1, 5, 1},   // any unsynced record: one fsync
        {3, 2, 0}, {3, 3, 1},   // N or more
        {0, 5, 0},              // only checkpoints sync
    };
    for (const Case &c : cases) {
        SCOPED_TRACE("sync every " + std::to_string(c.syncEvery) +
                     ", staged " + std::to_string(c.staged));
        auto config = smallConfig(freshDir("rule"));
        config.syncEveryRecords = c.syncEvery;
        auto opened = BoundService::open(config);
        ASSERT_TRUE(opened.ok());
        auto &service = *opened.value();
        const uint64_t before = fsyncsNow();
        size_t shard = 0;
        for (const auto &event : oneKeySubmits(1, c.staged))
            ASSERT_TRUE(service.stage(event, &shard).ok());
        EXPECT_EQ(fsyncsNow(), before) << "stage() never fsyncs";
        ASSERT_TRUE(service.commit(shard).ok());
        EXPECT_EQ(fsyncsNow() - before, c.fsyncs);
        // Everything staged is covered now: a second commit (another
        // loop's, say) has nothing left to sync.
        ASSERT_TRUE(service.commit(shard).ok());
        EXPECT_EQ(fsyncsNow() - before, c.fsyncs);
    }
    obs::setEnabled(false);
}

TEST(BoundService, GroupCommitHistogramCountsRecordsPerFsync)
{
    obs::setEnabled(true);
    auto opened = BoundService::open(smallConfig(freshDir("hist")));
    ASSERT_TRUE(opened.ok());
    auto &service = *opened.value();
    const auto before = histogramNow("qdel_persist_group_commit_events");
    size_t shard = 0;
    for (const auto &event : oneKeySubmits(1, 7))
        ASSERT_TRUE(service.stage(event, &shard).ok());
    ASSERT_TRUE(service.commit(shard).ok());
    const auto after = histogramNow("qdel_persist_group_commit_events");
    EXPECT_EQ(after.first - before.first, 1u);
    EXPECT_EQ(after.second - before.second, 7.0);
    obs::setEnabled(false);
}

TEST(BoundService, FailedFsyncFailsTheShardUntilRestart)
{
    const std::string dir = freshDir("failstop");
    const auto events = oneKeySubmits(1, 4);
    size_t shard = 0;
    {
        auto opened = BoundService::open(smallConfig(dir));
        ASSERT_TRUE(opened.ok());
        auto &service = *opened.value();
        ASSERT_TRUE(service.ingest(events[0]).ok());
        ASSERT_TRUE(service.stage(events[1], &shard).ok());
        // configure() restarts the op count: the next fsync fails.
        fault::configure({fault::Kind::FailFsync, 0, 1});
        EXPECT_FALSE(service.commit(shard).ok());
        fault::reset();
        EXPECT_EQ(service.failedShards(), 1u);
        EXPECT_FALSE(service.debugShards()[shard].failure.empty());

        // The retry of the unsynced event is an error, never a dedup
        // ack; so is anything new, and so is a checkpoint.
        size_t again = 0;
        EXPECT_FALSE(service.stage(events[1], &again).ok());
        EXPECT_FALSE(service.ingest(events[2]).ok());
        EXPECT_FALSE(service.commit(shard).ok());
        EXPECT_FALSE(service.checkpointAll().ok());

        // Fail-stop is per shard: the others keep taking writes.
        for (const auto &event : eventStream(20, 6)) {
            if (service.registry().shardForEvent(event) != shard) {
                EXPECT_TRUE(service.ingest(event).ok());
            }
        }
    }
    // A restart recovers what the disk holds (the failed fsync left
    // its data in place) and the shard takes writes again.
    auto reopened = BoundService::open(smallConfig(dir));
    ASSERT_TRUE(reopened.ok());
    auto &service = *reopened.value();
    EXPECT_EQ(service.failedShards(), 0u);
    EXPECT_GE(service.stats().processedPerShard[shard], 1u);
    auto retry = service.ingest(events[1]);
    ASSERT_TRUE(retry.ok());
    EXPECT_TRUE(retry.value().applied || retry.value().deduped);
    EXPECT_TRUE(service.ingest(events[3]).ok());
}

} // namespace
} // namespace serve
} // namespace qdel
