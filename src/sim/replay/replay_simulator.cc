/**
 * @file
 * Implementation of the replay evaluation simulator.
 */

#include "sim/replay/replay_simulator.hh"

#include <algorithm>
#include <cmath>
#include <optional>

#include "persist/checkpoint.hh"
#include "persist/io.hh"
#include "persist/state_codec.hh"

namespace qdel {
namespace sim {

namespace {

/** Bumped when the replay snapshot payload changes incompatibly. v2:
 *  one echo vector and the QueueCore state layout (refit-dirty flag).
 *  v3: pending releases are (start, submit) pairs, not (start, wait).
 *  v4: the calibration window and each pending release's outcome. */
constexpr uint32_t kReplayStateVersion = 4;
constexpr char kReplayStateTag[] = "replay-driver";

/** Jobs handed to the core per call; bounds the core's per-call
 *  scratch (QueueCore::processRows). */
constexpr size_t kChunkJobs = 4096;

/**
 * Identity of the input trace: size and a CRC over the raw bit
 * patterns of every (submit, wait) pair. Resuming against a different
 * trace would silently corrupt the evaluation, so decode rejects a
 * fingerprint mismatch.
 */
uint64_t
traceFingerprint(const trace::Trace &t)
{
    const trace::TraceColumns &jobs = t.columns();
    uint32_t crc = 0;
    for (size_t i = 0; i < t.size(); ++i) {
        const double pair[2] = {jobs.submit[i], jobs.wait[i]};
        crc = persist::crc32(pair, sizeof(pair), crc);
    }
    return (static_cast<uint64_t>(t.size()) << 32) ^ crc;
}

/** The config and probe echoed into a checkpoint, so a resume that
 *  asks a different question is refused. */
std::vector<double>
replayEcho(const ReplayConfig &config, const ReplayProbe &probe)
{
    std::vector<double> echo = {config.epochSeconds, config.trainFraction,
                                probe.captureSeries ? 1.0 : 0.0,
                                probe.seriesBegin, probe.seriesEnd,
                                probe.snapshotInterval};
    for (const auto &[q, upper] : probe.snapshotQuantiles)
        echo.insert(echo.end(), {q, upper ? 1.0 : 0.0});
    return echo;
}

Expected<std::string>
encodeReplayState(uint64_t fingerprint, const std::vector<double> &echo,
                  const QueueCore &queue)
{
    persist::StateWriter writer;
    persist::writeStateHeader(writer, kReplayStateTag, kReplayStateVersion);
    writer.u64(fingerprint);
    writer.doubles(echo);
    if (auto ok = queue.saveState(writer); !ok.ok())
        return ok.error();
    return writer.take();
}

/**
 * Inverse of encodeReplayState(). The core commits its state only when
 * the whole payload (including the predictor sub-payload) verified —
 * except the predictor itself, whose loadState() commits as soon as
 * *its* parse succeeds; the caller tracks that via @p predictor_loaded
 * and refuses to cold-start with a half-restored predictor.
 */
Expected<Unit>
decodeReplayState(const std::string &payload, uint64_t fingerprint,
                  const std::vector<double> &echo, size_t trace_size,
                  QueueCore &queue, bool *predictor_loaded)
{
    persist::StateReader reader(payload, "replay-snapshot");
    persist::readStateHeader(reader, kReplayStateTag, kReplayStateVersion);
    if (reader.u64() != fingerprint) {
        reader.fail(ParseError{"", 0, "fingerprint",
                               "checkpoint was written for a different "
                               "trace"});
    }
    if (reader.doubles() != echo) {
        reader.fail(ParseError{"", 0, "config",
                               "checkpoint was written under a different "
                               "replay config or probe"});
    }
    if (auto ok = queue.loadState(reader, predictor_loaded, trace_size);
        !ok.ok())
        return ok.error();
    return reader.expectEnd();
}

} // namespace

Expected<Unit>
ReplayConfig::validate() const
{
    // Negated comparisons so NaN fails validation too.
    if (!(trainFraction >= 0.0 && trainFraction < 1.0)) {
        return ParseError{"", 0, "trainFraction",
                          "must lie in [0, 1), got " +
                              std::to_string(trainFraction)};
    }
    if (!(epochSeconds >= 0.0) || !std::isfinite(epochSeconds)) {
        return ParseError{"", 0, "epochSeconds",
                          "must be finite and >= 0, got " +
                              std::to_string(epochSeconds)};
    }
    return Unit{};
}

Expected<Unit>
ReplayCheckpointOptions::validate() const
{
    if (enabled() && keepSnapshots == 0) {
        return ParseError{dir, 0, "keepSnapshots",
                          "must retain at least one snapshot"};
    }
    return Unit{};
}

Expected<ReplayResult>
ReplaySimulator::run(const trace::Trace &t, core::Predictor &predictor,
                     const ReplayProbe &probe,
                     const ReplayCheckpointOptions &ckpt) const
{
    if (auto valid = config_.validate(); !valid.ok())
        return valid.error();
    if (auto valid = probe.validate(); !valid.ok())
        return valid.error();
    if (auto valid = ckpt.validate(); !valid.ok())
        return valid.error();
    if (!t.isSorted()) {
        return ParseError{
            "", 0, "trace",
            "ReplaySimulator: trace must be sorted by submission time"};
    }
    if (!t.submitTimesFinite()) {
        return ParseError{
            "", 0, "trace",
            "ReplaySimulator: trace holds a non-finite submission time"};
    }

    if (t.empty())
        return ReplayResult{};

    const size_t training =
        static_cast<size_t>(config_.trainFraction *
                            static_cast<double>(t.size()));

    // --- Crash safety -------------------------------------------------
    QueueCore queue(predictor, {config_.epochSeconds, training}, &probe);
    std::optional<persist::CheckpointManager> manager;
    persist::CheckpointConfig cc;
    uint64_t fingerprint = 0;
    if (ckpt.enabled()) {
        fingerprint = traceFingerprint(t);
        cc.dir = ckpt.dir;
        cc.keepSnapshots = ckpt.keepSnapshots;
        auto opened = persist::CheckpointManager::open(cc);
        if (!opened.ok())
            return opened.error();
        manager.emplace(std::move(opened).value());
    }
    const std::vector<double> echo = replayEcho(config_, probe);

    std::vector<std::string> notes;
    size_t resumed_from = 0;
    if (manager && manager->hasExistingState()) {
        if (!ckpt.resume) {
            return ParseError{
                ckpt.dir, 0, "checkpoint-dir",
                "directory already contains checkpoint state; "
                "resume it (--resume) or use a fresh directory"};
        }
        bool predictor_loaded = false;
        // A snapshot written for a different trace or under a
        // different config is a mismatch, not corruption: the ladder
        // must not degrade it into a silent cold start.
        std::optional<ParseError> incompatible;
        auto report = persist::recoverState(
            cc,
            [&](const std::string &payload) {
                auto decoded = decodeReplayState(
                    payload, fingerprint, echo, t.size(), queue,
                    &predictor_loaded);
                if (!decoded.ok() && !incompatible &&
                    (decoded.error().field == "fingerprint" ||
                     decoded.error().field == "config")) {
                    incompatible = decoded.error();
                }
                return decoded;
            },
            // The trace is the replay's input log: resume is
            // snapshot-only, and the WAL segments are empty.
            nullptr);
        if (!report.ok())
            return report.error();
        if (incompatible)
            return *incompatible;
        notes.push_back(std::string("recovery source: ") +
                        persist::recoverySourceName(report.value().source));
        notes.insert(notes.end(), report.value().notes.begin(),
                     report.value().notes.end());
        if (report.value().source == persist::RecoverySource::ColdStart &&
            predictor_loaded) {
            return ParseError{
                ckpt.dir, 0, "recovery",
                "no snapshot fully applied but the predictor was "
                "partially restored; use a fresh predictor instance"};
        }
        resumed_from = queue.submits();
    } else if (manager && ckpt.resume) {
        notes.push_back("resume requested but directory is pristine; "
                        "cold start");
    }

    auto write_checkpoint = [&]() -> Expected<Unit> {
        auto payload = encodeReplayState(fingerprint, echo, queue);
        if (!payload.ok())
            return payload.error();
        return manager->checkpoint(payload.value());
    };

    // The opening checkpoint both verifies the predictor supports
    // persistence before hours of replay are invested and rotates any
    // recovered generation to a clean snapshot + fresh WAL segment.
    if (manager) {
        if (auto ok = write_checkpoint(); !ok.ok())
            return ok.error();
    }

    const size_t progress_every =
        config_.onProgress != nullptr ? config_.progressEveryJobs : 0;
    auto report_progress = [&]() {
        config_.onProgress({queue.submits(), t.size(), queue.evaluated(),
                            queue.correct()});
    };
    const size_t checkpoint_every = manager ? ckpt.intervalJobs : 0;

    // The trace is one stream: feed the core straight from its submit
    // and wait columns, in chunks that end on every progress and
    // checkpoint boundary (chunking never changes results).
    const double *submit = t.columns().submit.data();
    const double *wait = t.columns().wait.data();
    while (queue.submits() < t.size()) {
        const size_t begin = queue.submits();
        size_t end = std::min(t.size(), begin + kChunkJobs);
        for (size_t period : {progress_every, checkpoint_every}) {
            if (period > 0)
                end = std::min(end, (begin / period + 1) * period);
        }
        queue.processRows(submit + begin, wait + begin, end - begin);
        if (progress_every > 0 && end % progress_every == 0)
            report_progress();
        if (checkpoint_every > 0 && end % checkpoint_every == 0 &&
            end < t.size()) {
            if (auto ok = write_checkpoint(); !ok.ok())
                return ok.error();
        }
    }

    // Drain the window for the figure/table probes, and let the last
    // releases feed the history so snapshots after the final arrival
    // stay live. Idempotent on resume: a re-drained run finds every
    // event at or before the window end already consumed.
    if (probe.captureSeries || !probe.snapshotQuantiles.empty())
        queue.advanceTo(probe.seriesEnd);

    // Closing checkpoint: a resume of a finished run replays nothing.
    if (manager) {
        if (auto ok = write_checkpoint(); !ok.ok())
            return ok.error();
    }

    if (progress_every > 0)
        report_progress();

    auto result = queue.result();
    if (result.ok()) {
        result.value().resumedFromJob = resumed_from;
        result.value().recoveryNotes = std::move(notes);
    }
    return result;
}

} // namespace sim
} // namespace qdel
