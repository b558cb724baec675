/**
 * @file
 * Pins what every binary decoder answers for every strict prefix of a
 * valid payload: "ok", or the exact ParseError text. A truncated
 * snapshot, WAL record or wire body reaches these decoders whenever a
 * write is torn or a peer hangs up mid-frame, so the error a prefix
 * produces — its field, its offsets, which check fires first — is part
 * of the recovery contract. The outcomes of each payload are folded
 * into one FNV-1a hash; the count of "ok" prefixes is pinned beside it
 * so a drift in *which* prefixes decode is told apart from a drift in
 * the error text.
 *
 * Failed loads must also be commit-last: a failed loadShard() leaves
 * the registry's digest() unchanged, and a failed predictor
 * loadState() leaves its saveState() bytes unchanged.
 */

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "core/predictor_factory.hh"
#include "core/rare_event.hh"
#include "persist/fault_injection.hh"
#include "persist/io.hh"
#include "persist/snapshot.hh"
#include "persist/state_codec.hh"
#include "serve/bound_registry.hh"
#include "serve/wire.hh"
#include "sim/replay/replay_simulator.hh"

namespace qdel {
namespace {

/** Hash and "ok" count over the outcomes of every strict prefix. */
struct PrefixPin
{
    uint64_t hash = 0;
    size_t okCount = 0;
    size_t prefixes = 0;
    std::string first;  //!< Outcome of the empty prefix, for messages.
};

template <typename T>
std::string
outcomeOf(const Expected<T> &result)
{
    return result.ok() ? "ok" : result.error().str();
}

/**
 * Run @p decode over every strict prefix of @p payload. Each prefix is
 * copied into its own string so a sanitizer build sees any read past
 * its end.
 */
PrefixPin
pinPrefixes(const std::string &payload,
            const std::function<std::string(const std::string &)> &decode)
{
    PrefixPin pin;
    pin.hash = 1469598103934665603ull;
    for (size_t keep = 0; keep < payload.size(); ++keep) {
        const std::string outcome = decode(payload.substr(0, keep));
        if (keep == 0)
            pin.first = outcome;
        if (outcome == "ok")
            ++pin.okCount;
        for (char c : outcome + "\n") {
            pin.hash ^= static_cast<uint8_t>(c);
            pin.hash *= 1099511628211ull;
        }
        ++pin.prefixes;
    }
    return pin;
}

void
expectPin(const PrefixPin &pin, size_t prefixes, size_t ok_count,
          uint64_t hash)
{
    EXPECT_EQ(pin.prefixes, prefixes);
    EXPECT_EQ(pin.okCount, ok_count);
    EXPECT_EQ(pin.hash, hash)
        << "hash 0x" << std::hex << pin.hash << std::dec
        << "; empty prefix gave: " << pin.first;
}

serve::JobEvent
sampleEvent()
{
    serve::JobEvent event;
    event.kind = serve::EventKind::Start;
    event.jobId = 123456789;
    event.time = 1000.25;
    event.machine = "lanl-o2k";
    event.queue = "chammpq";
    event.procs = 48;
    return event;
}

std::string
decodeEventOutcome(const std::string &body)
{
    return outcomeOf(serve::decodeEvent(body));
}

TEST(DecodePrefixPin, EventV1)
{
    // A v1 body is the v2 layout without the trailing clientId + seq:
    // an empty clientId encodes as 8 length bytes, seq as 8 more.
    const std::string v2 = serve::encodeEvent(sampleEvent());
    const std::string v1 = v2.substr(0, v2.size() - 16);
    ASSERT_TRUE(serve::decodeEvent(v1).ok());
    const PrefixPin pin = pinPrefixes(v1, decodeEventOutcome);
    EXPECT_EQ(pin.first,
              "event: u8: truncated state: need 1 bytes at offset 0, "
              "have 0");
    expectPin(pin, 56, 0, 0x0bc6adeda6079545ull);
}

TEST(DecodePrefixPin, EventV2)
{
    serve::JobEvent event = sampleEvent();
    event.clientId = "client-7";
    event.seq = 42;
    const std::string v2 = serve::encodeEvent(event);
    ASSERT_TRUE(serve::decodeEvent(v2).ok());
    expectPin(pinPrefixes(v2, decodeEventOutcome), 80, 1,
              0x3c3f83043b2f80e5ull);
}

TEST(DecodePrefixPin, EventV3WithTraceTail)
{
    serve::JobEvent event = sampleEvent();
    event.clientId = "client-7";
    event.seq = 42;
    event.traceId = 0xfeedfacecafebeefull;
    const std::string v3 = serve::encodeEventWire(event);
    ASSERT_TRUE(serve::decodeEvent(v3).ok());
    expectPin(pinPrefixes(v3, decodeEventOutcome), 88, 2,
              0xbeb8e76aad28de3aull);
}

serve::BoundQuery
sampleQuery()
{
    serve::BoundQuery query;
    query.machine = "lanl-o2k";
    query.queue = "chammpq";
    query.procs = 64;
    query.quantile = 0.75;
    query.upper = false;
    return query;
}

std::string
decodeQueryOutcome(const std::string &body)
{
    return outcomeOf(serve::decodeQuery(body));
}

TEST(DecodePrefixPin, Query)
{
    const std::string body = serve::encodeQuery(sampleQuery());
    ASSERT_TRUE(serve::decodeQuery(body).ok());
    expectPin(pinPrefixes(body, decodeQueryOutcome), 48, 0,
              0x061b0e992b732b29ull);
}

TEST(DecodePrefixPin, QueryWithTraceTail)
{
    serve::BoundQuery query = sampleQuery();
    query.traceId = 77;
    const std::string body = serve::encodeQuery(query);
    ASSERT_TRUE(serve::decodeQuery(body).ok());
    expectPin(pinPrefixes(body, decodeQueryOutcome), 56, 1,
              0xfa83c7b9e53f85aaull);
}

TEST(DecodePrefixPin, Answer)
{
    serve::BoundAnswer answer;
    answer.known = true;
    answer.upper = 5400.5;
    answer.lower = 12.25;
    answer.quantile = 0.95;
    answer.confidence = 0.95;
    answer.historySize = 321;
    answer.observations = 1000;
    answer.version = 7;
    // The server's encoder: strip the u32 length and the status byte.
    std::string frame;
    serve::appendAnswerFrame(frame, answer);
    const std::string body = frame.substr(5);
    ASSERT_TRUE(serve::decodeAnswer(body).ok());
    expectPin(pinPrefixes(body,
                          [](const std::string &prefix) {
                              return outcomeOf(serve::decodeAnswer(prefix));
                          }),
              57, 0, 0xac026310047c67b7ull);
}

TEST(DecodePrefixPin, Stats)
{
    serve::ServeStats stats;
    stats.processedPerShard = {0, 17, 0, 9999999};
    stats.entries = 12;
    const std::string body = serve::encodeStats(stats);
    ASSERT_TRUE(serve::decodeStats(body).ok());
    expectPin(pinPrefixes(body,
                          [](const std::string &prefix) {
                              return outcomeOf(serve::decodeStats(prefix));
                          }),
              48, 0, 0xd1f5e127bb397ed3ull);
}

/** Submit at time zero and start @p wait later, so the wait is exact. */
void
feedWait(serve::BoundRegistry &registry, uint64_t job_id, double wait,
         const std::string &machine, const std::string &queue, int procs)
{
    serve::JobEvent submit;
    submit.kind = serve::EventKind::Submit;
    submit.jobId = job_id;
    submit.machine = machine;
    submit.queue = queue;
    submit.procs = procs;
    ASSERT_TRUE(registry.apply(submit).applied);
    serve::JobEvent start = submit;
    start.kind = serve::EventKind::Start;
    start.time = wait;
    ASSERT_TRUE(registry.apply(start).applied);
}

TEST(DecodePrefixPin, RegistryShard)
{
    serve::BoundRegistry::Options options;
    options.shards = 1;  // every key lands in shard 0
    options.epochSeconds = 10.0;
    options.trainJobs = 4;
    serve::BoundRegistry registry(options);
    for (uint64_t i = 1; i <= 12; ++i) {
        const double wait = 5.0 + static_cast<double>((i * 37) % 11);
        feedWait(registry, i, wait, "m1", "q", 4);
        feedWait(registry, i, wait * 3.0, "m1", "wide", 128);
        feedWait(registry, i, wait + 0.5, "m2", "q", 1);
    }
    // Pending submits on two keys, and a client fence.
    for (uint64_t id : {900, 901}) {
        serve::JobEvent pending;
        pending.kind = serve::EventKind::Submit;
        pending.jobId = id;
        pending.time = 7.5;
        pending.machine = "m1";
        pending.queue = id == 900 ? "q" : "wide";
        pending.procs = id == 900 ? 4 : 128;
        pending.clientId = "client-7";
        pending.seq = id;
        ASSERT_TRUE(registry.apply(pending).applied);
    }
    ASSERT_EQ(registry.enumerate().size(), 3u);

    persist::StateWriter writer;
    {
        auto lock = registry.lockShard(0);
        ASSERT_TRUE(registry.saveShard(0, writer).ok());
    }
    const std::string payload = writer.take();

    // The target holds state of its own, so a partial commit shows.
    serve::BoundRegistry target(options);
    feedWait(target, 1, 99.0, "other", "q", 2);
    const std::string digest_before = target.digest();

    const PrefixPin pin =
        pinPrefixes(payload, [&](const std::string &prefix) {
            persist::StateReader reader(prefix, "shard");
            auto loaded = target.loadShard(0, reader);
            if (!loaded.ok()) {
                EXPECT_EQ(target.digest(), digest_before)
                    << prefix.size();
            }
            return outcomeOf(loaded);
        });
    expectPin(pin, 1895, 0, 0x09604f2c588fdc59ull);

    persist::StateReader whole(payload, "shard");
    ASSERT_TRUE(target.loadShard(0, whole).ok());
    EXPECT_EQ(target.digest(), registry.digest());
}

TEST(DecodePrefixPin, FactoryPredictorStates)
{
    core::PredictorOptions options;
    options.quantile = 0.9;
    options.confidence = 0.9;
    struct Want
    {
        std::string method;
        size_t prefixes;
        uint64_t hash;
    };
    // Both bmbp variants save under one name() and, with no trim on
    // this series, one layout: their outcomes coincide.
    const std::vector<Want> expected = {
        {"bmbp", 569, 0x1bc1fe518ccf23a8ull},
        {"bmbp-notrim", 569, 0x1bc1fe518ccf23a8ull},
        {"lognormal", 590, 0x5d205c1f2e90b32dull},
        {"lognormal-trim", 483, 0xf5dc9ce930ef607cull},
        {"percentile", 534, 0xb4facb283ffcb36cull},
        {"loguniform", 550, 0xd749b1d208158c3cull},
    };
    ASSERT_EQ(expected.size(), core::knownPredictorMethods().size());
    for (const auto &[method, prefixes, hash] : expected) {
        SCOPED_TRACE(method);
        // 60 waits with a level shift halfway, so trimming predictors
        // carry change-point state.
        auto source = core::makePredictor(method, options);
        for (int i = 0; i < 60; ++i) {
            source->observe(10.0 + (i * 13) % 17 + (i >= 30 ? 900.0 : 0.0));
            source->refit();
        }
        persist::StateWriter writer;
        ASSERT_TRUE(source->saveState(writer).ok());
        const std::string payload = writer.take();

        auto target = core::makePredictor(method, options);
        for (int i = 0; i < 5; ++i) {
            target->observe(3.0 + i);
            target->refit();
        }
        persist::StateWriter before;
        ASSERT_TRUE(target->saveState(before).ok());

        const PrefixPin pin =
            pinPrefixes(payload, [&](const std::string &prefix) {
                persist::StateReader reader(prefix, "predictor");
                auto loaded = target->loadState(reader);
                if (!loaded.ok()) {
                    persist::StateWriter after;
                    EXPECT_TRUE(target->saveState(after).ok());
                    EXPECT_EQ(after.bytes(), before.bytes())
                        << prefix.size();
                }
                return outcomeOf(loaded);
            });
        expectPin(pin, prefixes, 0, hash);
    }
}

/** 100 jobs a minute apart, waits 5..45 s with a jump at job 60. */
trace::Trace
replayTrace()
{
    trace::Trace t;
    for (size_t i = 0; i < 100; ++i) {
        trace::JobRecord job;
        job.submitTime = 1000.0 + static_cast<double>(i) * 60.0;
        job.waitSeconds =
            5.0 + 40.0 * static_cast<double>((i * 37) % 97) / 97.0 +
            (i >= 60 ? 500.0 : 0.0);
        t.add(job);
    }
    return t;
}

std::unique_ptr<core::Predictor>
replayPredictor()
{
    // One shared rare-event table: building it per instance would
    // dominate a run per prefix.
    static const core::RareEventTable table(0.5);
    core::PredictorOptions options;
    options.quantile = 0.5;
    options.confidence = 0.8;
    options.rareEventTable = &table;
    return core::makePredictor("bmbp", options);
}

sim::ReplayProbe
replayProbe()
{
    sim::ReplayProbe probe;
    probe.captureSeries = true;
    probe.seriesBegin = 1000.0 + 10.0 * 60.0;
    probe.seriesEnd = 1000.0 + 90.0 * 60.0;
    probe.snapshotInterval = 900.0;
    probe.snapshotQuantiles = {{0.5, true}, {0.9, false}};
    return probe;
}

sim::ReplayCheckpointOptions
replayCkpt(const std::string &dir, bool resume, size_t interval)
{
    sim::ReplayCheckpointOptions ckpt;
    ckpt.dir = dir;
    ckpt.intervalJobs = interval;
    ckpt.resume = resume;
    return ckpt;
}

std::string
freshDir(const std::string &name)
{
    const std::string dir = ::testing::TempDir() + "qdel_pin_" + name;
    std::filesystem::remove_all(dir);
    EXPECT_TRUE(persist::ensureDirectory(dir).ok());
    return dir;
}

TEST(DecodePrefixPin, MidRunReplaySnapshot)
{
    fault::reset();
    const trace::Trace t = replayTrace();
    const sim::ReplayConfig config{300.0, 0.10};

    // Checkpoints land at jobs 0 and 50 and at the end; two are kept,
    // so the older survivor is the mid-run one.
    const std::string source_dir = freshDir("source");
    {
        auto predictor = replayPredictor();
        sim::ReplaySimulator simulator(config);
        ASSERT_TRUE(simulator
                        .run(t, *predictor, replayProbe(),
                             replayCkpt(source_dir, false, 50))
                        .ok());
    }
    auto names = persist::listDirectory(source_dir);
    ASSERT_TRUE(names.ok());
    std::vector<std::string> snapshots;
    for (const std::string &name : names.value()) {
        if (name.rfind("snapshot-", 0) == 0)
            snapshots.push_back(name);
    }
    ASSERT_EQ(snapshots.size(), 2u);
    std::sort(snapshots.begin(), snapshots.end());
    auto payload = persist::readSnapshotFile(source_dir + "/" +
                                             snapshots.front());
    ASSERT_TRUE(payload.ok());

    // Each prefix is sealed as the only snapshot of a fresh directory
    // and resumed; the recovery note carries the decoder's verdict.
    const std::string dir = ::testing::TempDir() + "qdel_pin_prefix";
    const PrefixPin pin =
        pinPrefixes(payload.value(), [&](const std::string &prefix) {
            std::filesystem::remove_all(dir);
            EXPECT_TRUE(persist::ensureDirectory(dir).ok());
            EXPECT_TRUE(persist::writeSnapshotFile(
                            dir + "/snapshot-0000000001.qds", prefix)
                            .ok());
            auto predictor = replayPredictor();
            sim::ReplaySimulator simulator(config);
            auto resumed = simulator.run(t, *predictor, replayProbe(),
                                         replayCkpt(dir, true, 1000));
            if (!resumed.ok())
                return "run: " + resumed.error().str();
            std::string notes;
            for (const std::string &note : resumed.value().recoveryNotes)
                notes += note + "|";
            return notes;
        });
    expectPin(pin, 1244, 0, 0x0c576bb4977b914aull);
}

} // namespace
} // namespace qdel
