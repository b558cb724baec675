/**
 * @file
 * Tests for the replay simulator's crash-safe checkpointing: a
 * checkpointed run is indistinguishable from a plain one, a run killed
 * mid-flight resumes to byte-identical results, and the recovery
 * ladder plus the trace/config fingerprints guard against resuming
 * the wrong state.
 */

#include <cmath>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/bmbp_predictor.hh"
#include "core/lognormal_predictor.hh"
#include "persist/fault_injection.hh"
#include "persist/io.hh"
#include "persist/snapshot.hh"
#include "persist/state_codec.hh"
#include "sim/replay/evaluation.hh"
#include "sim/replay/replay_simulator.hh"

namespace qdel {
namespace sim {
namespace {

std::string
freshDir(const std::string &name)
{
    const std::string dir = ::testing::TempDir() + "qdel_rc_" + name;
    std::filesystem::remove_all(dir);
    EXPECT_TRUE(persist::ensureDirectory(dir).ok());
    return dir;
}

/**
 * 600 jobs, one a minute, waits cycling through 5..45 s with a jump to
 * 500+ s at job 400 so the change-point machinery trims mid-run. A
 * positive @p release_grid delays every even job's start to the next
 * multiple of it, so several releases share an instant and are pending
 * together at each checkpoint.
 */
trace::Trace
makeTrace(size_t count = 600, double wait_offset = 0.0,
          double release_grid = 0.0)
{
    trace::Trace t;
    for (size_t i = 0; i < count; ++i) {
        trace::JobRecord job;
        job.submitTime = 1000.0 + static_cast<double>(i) * 60.0;
        job.waitSeconds = 5.0 +
                          40.0 * static_cast<double>((i * 37) % 97) /
                              97.0 +
                          (i >= 400 ? 500.0 : 0.0) + wait_offset;
        if (release_grid > 0.0 && i % 2 == 0) {
            const double start = job.submitTime + job.waitSeconds;
            job.waitSeconds = release_grid * std::ceil(start / release_grid) -
                              job.submitTime;
        }
        t.add(job);
    }
    return t;
}

/** A trimming predictor: "bmbp" or "lognormal-trim". */
std::unique_ptr<core::Predictor>
makePredictor(const std::string &method = "bmbp")
{
    if (method == "lognormal-trim") {
        core::LogNormalConfig config;
        config.quantile = 0.5;
        config.confidence = 0.8;
        config.trimmingEnabled = true;
        config.runThresholdOverride = 2;
        return std::make_unique<core::LogNormalPredictor>(config);
    }
    core::BmbpConfig config;
    config.quantile = 0.5;
    config.confidence = 0.8;
    config.trimmingEnabled = true;
    config.runThresholdOverride = 2;
    return std::make_unique<core::BmbpPredictor>(config);
}

ReplayProbe
makeProbe()
{
    ReplayProbe probe;
    probe.captureSeries = true;
    probe.seriesBegin = 1000.0 + 100.0 * 60.0;
    probe.seriesEnd = 1000.0 + 500.0 * 60.0;
    probe.snapshotInterval = 3600.0;
    probe.snapshotQuantiles = {{0.5, true}, {0.9, true}};
    return probe;
}

ReplayCheckpointOptions
makeCkpt(const std::string &dir, bool resume = false)
{
    ReplayCheckpointOptions ckpt;
    ckpt.dir = dir;
    ckpt.intervalJobs = 50;
    ckpt.resume = resume;
    return ckpt;
}

/** The byte-identical-results contract, field by field. */
void
expectSameResult(const ReplayResult &a, const ReplayResult &b)
{
    EXPECT_EQ(a.totalJobs, b.totalJobs);
    EXPECT_EQ(a.trainingJobs, b.trainingJobs);
    EXPECT_EQ(a.evaluatedJobs, b.evaluatedJobs);
    EXPECT_EQ(a.correct, b.correct);
    EXPECT_EQ(a.infinitePredictions, b.infinitePredictions);
    EXPECT_EQ(a.correctFraction, b.correctFraction);  // exact, not near
    EXPECT_EQ(a.medianRatio, b.medianRatio);
    EXPECT_EQ(a.windowCount, b.windowCount);
    EXPECT_EQ(a.windowHits, b.windowHits);
    EXPECT_EQ(a.windowCoverage, b.windowCoverage);
    EXPECT_EQ(a.drift, b.drift);
    EXPECT_EQ(a.pValue, b.pValue);
    EXPECT_EQ(a.failing, b.failing);
    ASSERT_EQ(a.series.size(), b.series.size());
    for (size_t i = 0; i < a.series.size(); ++i) {
        EXPECT_EQ(a.series[i].time, b.series[i].time);
        EXPECT_EQ(a.series[i].value, b.series[i].value);
    }
    ASSERT_EQ(a.snapshots.size(), b.snapshots.size());
    for (size_t i = 0; i < a.snapshots.size(); ++i) {
        EXPECT_EQ(a.snapshots[i].time, b.snapshots[i].time);
        EXPECT_EQ(a.snapshots[i].values, b.snapshots[i].values);
    }
}

/** The plain, un-checkpointed reference run. */
ReplayResult
referenceRun(const trace::Trace &t, size_t *trims = nullptr,
             const std::string &method = "bmbp")
{
    auto predictor = makePredictor(method);
    ReplaySimulator simulator({300.0, 0.10});
    auto result = simulator.run(t, *predictor, makeProbe());
    EXPECT_TRUE(result.ok());
    if (trims)
        *trims = predictorTrimCount(*predictor);
    return std::move(result).value();
}

TEST(ReplayCheckpoint, CheckpointedRunMatchesPlainRun)
{
    fault::reset();
    const trace::Trace t = makeTrace();
    size_t plain_trims = 0;
    const ReplayResult plain = referenceRun(t, &plain_trims);
    ASSERT_GT(plain_trims, 0u);  // the scenario must exercise trims

    auto predictor = makePredictor();
    ReplaySimulator simulator({300.0, 0.10});
    auto result = simulator.run(t, *predictor, makeProbe(),
                                makeCkpt(freshDir("match")));
    ASSERT_TRUE(result.ok()) << result.error().str();
    expectSameResult(plain, result.value());
    EXPECT_EQ(result.value().resumedFromJob, 0u);
    EXPECT_EQ(predictorTrimCount(*predictor), plain_trims);
}

/** Kill a checkpointed @p method run over @p t halfway through its
 *  persistence ops, resume it, and expect the uninterrupted run's
 *  results. @p name keeps the runs' directories apart. */
void
crashMidRunThenResume(const std::string &method, const trace::Trace &t,
                      const std::string &name)
{
    SCOPED_TRACE(method + " " + name);
    fault::reset();
    size_t plain_trims = 0;
    const ReplayResult plain = referenceRun(t, &plain_trims, method);
    ASSERT_GT(plain_trims, 0u);  // the scenario must exercise trims

    // Profile a fault-free checkpointed run to learn the total
    // persistence-op count, then kill a second run halfway through it.
    {
        auto predictor = makePredictor(method);
        ReplaySimulator simulator({300.0, 0.10});
        ASSERT_TRUE(simulator
                        .run(t, *predictor, makeProbe(),
                             makeCkpt(freshDir("profile_" + name)))
                        .ok());
    }
    const uint64_t total_ops = fault::opCount();
    ASSERT_GT(total_ops, 4u);

    const std::string dir = freshDir("crash_" + name);
    fault::configure(
        {fault::Kind::ShortWrite, total_ops / 2, 77});
    {
        auto victim = makePredictor(method);
        ReplaySimulator simulator({300.0, 0.10});
        auto doomed =
            simulator.run(t, *victim, makeProbe(), makeCkpt(dir));
        ASSERT_FALSE(doomed.ok());  // the "process" died mid-run
    }
    fault::reset();

    // Restart with a fresh predictor instance and resume.
    auto predictor = makePredictor(method);
    ReplaySimulator simulator({300.0, 0.10});
    auto resumed = simulator.run(t, *predictor, makeProbe(),
                                 makeCkpt(dir, true));
    ASSERT_TRUE(resumed.ok()) << resumed.error().str();
    EXPECT_GT(resumed.value().resumedFromJob, 0u);
    ASSERT_FALSE(resumed.value().recoveryNotes.empty());
    EXPECT_NE(resumed.value().recoveryNotes.front().find(
                  "recovery source:"),
              std::string::npos);
    expectSameResult(plain, resumed.value());
    EXPECT_EQ(predictorTrimCount(*predictor), plain_trims);
}

TEST(ReplayCheckpoint, CrashMidRunThenResumeIsByteIdentical)
{
    crashMidRunThenResume("bmbp", makeTrace(), "bmbp");
    // Round-trips the lognormal running sums and trims through a crash.
    crashMidRunThenResume("lognormal-trim", makeTrace(), "lognormal");
    // Equal-time releases pending at the checkpoint.
    crashMidRunThenResume("bmbp", makeTrace(600, 0.0, 900.0), "grid");
}

TEST(ReplayCheckpoint, ResumeAfterCompletionIsIdempotent)
{
    fault::reset();
    const trace::Trace t = makeTrace();
    const ReplayResult plain = referenceRun(t);
    const std::string dir = freshDir("idempotent");
    {
        auto predictor = makePredictor();
        ReplaySimulator simulator({300.0, 0.10});
        ASSERT_TRUE(
            simulator.run(t, *predictor, makeProbe(), makeCkpt(dir))
                .ok());
    }
    auto predictor = makePredictor();
    ReplaySimulator simulator({300.0, 0.10});
    auto resumed = simulator.run(t, *predictor, makeProbe(),
                                 makeCkpt(dir, true));
    ASSERT_TRUE(resumed.ok()) << resumed.error().str();
    EXPECT_EQ(resumed.value().resumedFromJob, t.size());
    expectSameResult(plain, resumed.value());
}

TEST(ReplayCheckpoint, CorruptNewestSnapshotFallsBackOneGeneration)
{
    fault::reset();
    const trace::Trace t = makeTrace();
    const ReplayResult plain = referenceRun(t);
    const std::string dir = freshDir("fallback");
    {
        auto predictor = makePredictor();
        ReplaySimulator simulator({300.0, 0.10});
        ASSERT_TRUE(
            simulator.run(t, *predictor, makeProbe(), makeCkpt(dir))
                .ok());
    }
    // Flip one payload byte of the newest snapshot.
    auto entries = persist::listDirectory(dir);
    ASSERT_TRUE(entries.ok());
    std::string newest;
    for (const std::string &name : entries.value()) {
        if (name.rfind("snapshot-", 0) == 0 && name > newest)
            newest = name;
    }
    ASSERT_FALSE(newest.empty());
    auto bytes = persist::readFileBytes(dir + "/" + newest);
    ASSERT_TRUE(bytes.ok());
    std::string corrupt = bytes.value();
    ASSERT_GT(corrupt.size(), 40u);
    corrupt[40] = static_cast<char>(corrupt[40] ^ 0x20);
    ASSERT_TRUE(
        persist::atomicWriteFile(dir + "/" + newest, corrupt).ok());

    auto predictor = makePredictor();
    ReplaySimulator simulator({300.0, 0.10});
    auto resumed = simulator.run(t, *predictor, makeProbe(),
                                 makeCkpt(dir, true));
    ASSERT_TRUE(resumed.ok()) << resumed.error().str();
    EXPECT_NE(resumed.value().recoveryNotes.front().find(
                  "previous-snapshot"),
              std::string::npos);
    EXPECT_LT(resumed.value().resumedFromJob, t.size());
    expectSameResult(plain, resumed.value());
}

TEST(ReplayCheckpoint, SnapshotAheadOfTheTraceIsRefused)
{
    fault::reset();
    const trace::Trace t = makeTrace();
    const ReplayResult plain = referenceRun(t);
    const std::string dir = freshDir("ahead");
    {
        auto predictor = makePredictor();
        ReplaySimulator simulator({300.0, 0.10});
        ASSERT_TRUE(
            simulator.run(t, *predictor, makeProbe(), makeCkpt(dir))
                .ok());
    }
    auto entries = persist::listDirectory(dir);
    ASSERT_TRUE(entries.ok());
    std::string newest;
    for (const std::string &name : entries.value()) {
        if (name.rfind("snapshot-", 0) == 0 && name > newest)
            newest = name;
    }
    ASSERT_FALSE(newest.empty());
    // Re-seal the newest snapshot with its job position one past the
    // trace's end. Its checksums stay valid, so only decode can tell.
    auto payload = persist::readSnapshotFile(dir + "/" + newest);
    ASSERT_TRUE(payload.ok());
    persist::StateReader reader(payload.value());
    reader.str();      // tag
    reader.u32();      // version
    reader.u64();      // trace fingerprint
    reader.doubles();  // config echo; jobs come next
    ASSERT_TRUE(reader.ok());
    persist::StateWriter ahead;
    ahead.u64(t.size() + 1);
    std::string forged = payload.value();
    forged.replace(forged.size() - reader.remaining(), ahead.bytes().size(),
                   ahead.bytes());
    ASSERT_TRUE(
        persist::writeSnapshotFile(dir + "/" + newest, forged).ok());

    auto predictor = makePredictor();
    ReplaySimulator simulator({300.0, 0.10});
    auto resumed = simulator.run(t, *predictor, makeProbe(),
                                 makeCkpt(dir, true));
    ASSERT_TRUE(resumed.ok()) << resumed.error().str();
    bool refused = false;
    for (const std::string &note : resumed.value().recoveryNotes)
        refused = refused || note.find("ahead of its input") !=
                                 std::string::npos;
    EXPECT_TRUE(refused);
    EXPECT_NE(resumed.value().recoveryNotes.front().find(
                  "previous-snapshot"),
              std::string::npos);
    EXPECT_LT(resumed.value().resumedFromJob, t.size());
    expectSameResult(plain, resumed.value());
}

/**
 * Retag every snapshot of a finished checkpointed run (state version
 * 4) as @p old_version and resume: each must be refused by the header
 * check, so the run cold-starts and still matches the plain run.
 */
void
expectOldVersionRefused(uint32_t old_version)
{
    fault::reset();
    const trace::Trace t = makeTrace();
    const ReplayResult plain = referenceRun(t);
    const std::string dir =
        freshDir("v" + std::to_string(old_version));
    {
        auto predictor = makePredictor();
        ReplaySimulator simulator({300.0, 0.10});
        ASSERT_TRUE(
            simulator.run(t, *predictor, makeProbe(), makeCkpt(dir))
                .ok());
    }
    persist::StateWriter old_header;
    persist::writeStateHeader(old_header, "replay-driver", old_version);
    persist::StateWriter current_header;
    persist::writeStateHeader(current_header, "replay-driver", 4);
    auto entries = persist::listDirectory(dir);
    ASSERT_TRUE(entries.ok());
    size_t retagged = 0;
    for (const std::string &name : entries.value()) {
        if (name.rfind("snapshot-", 0) != 0)
            continue;
        auto payload = persist::readSnapshotFile(dir + "/" + name);
        ASSERT_TRUE(payload.ok());
        std::string old = payload.value();
        ASSERT_EQ(old.compare(0, current_header.bytes().size(),
                              current_header.bytes()),
                  0);
        old.replace(0, current_header.bytes().size(), old_header.bytes());
        ASSERT_TRUE(persist::writeSnapshotFile(dir + "/" + name, old).ok());
        ++retagged;
    }
    ASSERT_GT(retagged, 0u);

    auto predictor = makePredictor();
    ReplaySimulator simulator({300.0, 0.10});
    auto resumed = simulator.run(t, *predictor, makeProbe(),
                                 makeCkpt(dir, true));
    ASSERT_TRUE(resumed.ok()) << resumed.error().str();
    const std::string refusal =
        "state version " + std::to_string(old_version) + " unsupported";
    size_t refused = 0;
    for (const std::string &note : resumed.value().recoveryNotes)
        refused += note.find(refusal) != std::string::npos;
    EXPECT_EQ(refused, retagged);
    EXPECT_EQ(resumed.value().resumedFromJob, 0u);
    expectSameResult(plain, resumed.value());
}

TEST(ReplayCheckpoint, VersionTwoSnapshotIsRefused)
{
    // v3 pending releases are (start, submit) pairs; v2 wrote
    // (start, wait). A v2 snapshot must be refused by the header check,
    // not decoded with its waits read as submit times.
    expectOldVersionRefused(2);
}

TEST(ReplayCheckpoint, VersionThreeSnapshotIsRefused)
{
    // v4 added the calibration window and each pending release's
    // outcome to the core's state; a v3 snapshot has neither.
    expectOldVersionRefused(3);
}

TEST(ReplayCheckpoint, DirtyDirectoryWithoutResumeIsRejected)
{
    fault::reset();
    const trace::Trace t = makeTrace(100);
    const std::string dir = freshDir("dirty");
    {
        auto predictor = makePredictor();
        ReplaySimulator simulator({300.0, 0.10});
        ASSERT_TRUE(simulator.run(t, *predictor, {}, makeCkpt(dir)).ok());
    }
    auto predictor = makePredictor();
    ReplaySimulator simulator({300.0, 0.10});
    auto result = simulator.run(t, *predictor, {}, makeCkpt(dir));
    ASSERT_FALSE(result.ok());
    EXPECT_NE(result.error().reason.find("already contains"),
              std::string::npos);
}

TEST(ReplayCheckpoint, ResumeWithDifferentTraceIsRejected)
{
    fault::reset();
    const std::string dir = freshDir("wrongtrace");
    {
        auto predictor = makePredictor();
        ReplaySimulator simulator({300.0, 0.10});
        ASSERT_TRUE(
            simulator.run(makeTrace(), *predictor, {}, makeCkpt(dir))
                .ok());
    }
    auto predictor = makePredictor();
    ReplaySimulator simulator({300.0, 0.10});
    // Same length, different waits: the fingerprint must catch it.
    auto result = simulator.run(makeTrace(600, 1.0), *predictor, {},
                                makeCkpt(dir, true));
    ASSERT_FALSE(result.ok());
    EXPECT_NE(result.error().reason.find("different trace"),
              std::string::npos);
}

TEST(ReplayCheckpoint, ResumeWithDifferentConfigOrProbeIsRejected)
{
    fault::reset();
    const trace::Trace t = makeTrace(200);
    const std::string dir = freshDir("wrongprobe");
    {
        auto predictor = makePredictor();
        ReplaySimulator simulator({300.0, 0.10});
        ASSERT_TRUE(
            simulator.run(t, *predictor, makeProbe(), makeCkpt(dir))
                .ok());
    }
    {
        // Different epoch.
        auto predictor = makePredictor();
        ReplaySimulator simulator({600.0, 0.10});
        auto result = simulator.run(t, *predictor, makeProbe(),
                                    makeCkpt(dir, true));
        ASSERT_FALSE(result.ok());
        EXPECT_NE(result.error().reason.find("different replay config"),
                  std::string::npos);
    }
    {
        // Different probe quantiles.
        ReplayProbe probe = makeProbe();
        probe.snapshotQuantiles = {{0.25, true}};
        auto predictor = makePredictor();
        ReplaySimulator simulator({300.0, 0.10});
        auto result = simulator.run(t, *predictor, probe,
                                    makeCkpt(dir, true));
        ASSERT_FALSE(result.ok());
    }
}

TEST(ReplayCheckpoint, ResumeOnPristineDirectoryColdStarts)
{
    fault::reset();
    const trace::Trace t = makeTrace(100);
    auto predictor = makePredictor();
    ReplaySimulator simulator({300.0, 0.10});
    auto result = simulator.run(t, *predictor, {},
                                makeCkpt(freshDir("pristine"), true));
    ASSERT_TRUE(result.ok()) << result.error().str();
    EXPECT_EQ(result.value().resumedFromJob, 0u);
    ASSERT_FALSE(result.value().recoveryNotes.empty());
    EXPECT_NE(result.value().recoveryNotes.front().find("pristine"),
              std::string::npos);
}

TEST(ReplayCheckpoint, OptionsValidation)
{
    const trace::Trace t = makeTrace(10);
    auto predictor = makePredictor();
    ReplaySimulator simulator({300.0, 0.10});
    ReplayCheckpointOptions ckpt = makeCkpt(freshDir("validate"));
    ckpt.keepSnapshots = 0;
    auto result = simulator.run(t, *predictor, {}, ckpt);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.error().field, "keepSnapshots");
}

TEST(Replay, ProgressReportsEachBoundaryOnce)
{
    std::vector<size_t> seen;
    ReplayConfig config{300.0, 0.10};
    config.onProgress = [&](const ReplayProgress &p) {
        seen.push_back(p.jobsProcessed);
    };

    // The last batch ends on a boundary: the end is that report.
    config.progressEveryJobs = 1000;
    auto predictor = makePredictor();
    ASSERT_TRUE(ReplaySimulator(config).run(makeTrace(2000), *predictor)
                    .ok());
    EXPECT_EQ(seen, (std::vector<size_t>{1000, 2000}));

    // Checkpoints every 500 jobs cut batches between the reports.
    seen.clear();
    config.progressEveryJobs = 700;
    const trace::Trace t = makeTrace(2100);
    ReplayCheckpointOptions ckpt = makeCkpt(freshDir("progress_once"));
    ckpt.intervalJobs = 500;
    predictor = makePredictor();
    auto checkpointed =
        ReplaySimulator(config).run(t, *predictor, makeProbe(), ckpt);
    ASSERT_TRUE(checkpointed.ok()) << checkpointed.error().str();
    EXPECT_EQ(seen, (std::vector<size_t>{700, 1400, 2100}));
    expectSameResult(checkpointed.value(), referenceRun(t));

    // A resumed run counts from its resume point: here, the end.
    seen.clear();
    ckpt.resume = true;
    predictor = makePredictor();
    auto resumed =
        ReplaySimulator(config).run(t, *predictor, makeProbe(), ckpt);
    ASSERT_TRUE(resumed.ok()) << resumed.error().str();
    EXPECT_EQ(resumed.value().resumedFromJob, t.size());
    EXPECT_TRUE(seen.empty());
}

} // namespace
} // namespace sim
} // namespace qdel
