/**
 * @file
 * Deterministic fuzzing of the binary decoders: the wire bodies, the
 * frame header, a registry shard (which nests the replay core's and
 * the predictor's state) and each factory predictor's state.
 *
 * Every iteration mutates a valid payload — a random truncation, a
 * few flipped bytes, or an 8-byte field overwritten with a huge
 * length/count — and asserts the decode contract: no crash or hang
 * (the sanitizer job runs this), every call answers ok or a
 * ParseError with a reason, and a failed load leaves its target
 * untouched. The mutations are driven by the repo's portable Rng, so a
 * failing iteration reproduces from its seed on every platform.
 *
 * QDEL_FUZZ_ITERATIONS overrides the per-property iteration count
 * (CI's sanitizer job raises it; the default keeps local runs fast).
 */

#include <cstdint>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "core/predictor_factory.hh"
#include "core/rare_event.hh"
#include "persist/state_codec.hh"
#include "serve/bound_registry.hh"
#include "serve/wire.hh"
#include "stats/rng.hh"
#include "util/string_utils.hh"

namespace qdel {
namespace {

size_t
iterations()
{
    if (const char *env = std::getenv("QDEL_FUZZ_ITERATIONS")) {
        if (auto parsed = parseInt(env); parsed && *parsed > 0)
            return static_cast<size_t>(*parsed);
    }
    return 50;
}

size_t
pick(stats::Rng &rng, size_t size)
{
    return static_cast<size_t>(
        rng.uniformInt(0, static_cast<long long>(size) - 1));
}

/** Lengths and counts a corrupt field might declare. */
const uint64_t kHugeValues[] = {
    uint64_t{1} << 62, ~uint64_t{0}, uint64_t{1} << 32, 1u << 20,
    uint64_t{1} << 63,
};

/** Truncate, flip bytes, or overwrite an 8-byte field with a huge
 *  value — the last is what a corrupt length or count looks like. */
std::string
mutate(const std::string &payload, stats::Rng &rng)
{
    std::string out = payload;
    if (out.empty())
        return out;
    switch (rng.uniformInt(0, 2)) {
    case 0:
        out.resize(pick(rng, out.size()));
        break;
    case 1: {
        const int flips = static_cast<int>(rng.uniformInt(1, 4));
        for (int f = 0; f < flips; ++f) {
            const size_t at = pick(rng, out.size());
            out[at] = static_cast<char>(
                out[at] ^ static_cast<char>(rng.uniformInt(1, 255)));
        }
        break;
    }
    default: {
        if (out.size() < 8)
            break;
        const size_t at = pick(rng, out.size() - 7);
        persist::StateWriter field;
        field.u64(kHugeValues[pick(rng, std::size(kHugeValues))]);
        out.replace(at, 8, field.bytes());
        break;
    }
    }
    return out;
}

template <typename T>
void
expectOkOrParseError(const Expected<T> &result, size_t iteration)
{
    if (!result.ok()) {
        EXPECT_FALSE(result.error().reason.empty()) << iteration;
    }
}

std::vector<std::string>
wireBodies()
{
    serve::JobEvent event;
    event.kind = serve::EventKind::Start;
    event.jobId = 123456789;
    event.time = 1000.25;
    event.machine = "lanl-o2k";
    event.queue = "chammpq";
    event.procs = 48;
    const std::string v2_plain = serve::encodeEvent(event);
    event.clientId = "client-7";
    event.seq = 42;
    event.traceId = 0xfeedfacecafebeefull;
    return {v2_plain.substr(0, v2_plain.size() - 16),  // v1
            serve::encodeEvent(event), serve::encodeEventWire(event)};
}

TEST(FuzzDecode, WireBodiesAnswerOkOrParseError)
{
    serve::BoundQuery query;
    query.machine = "lanl-o2k";
    query.queue = "chammpq";
    query.procs = 64;
    query.traceId = 77;
    serve::BoundAnswer answer;
    answer.known = true;
    answer.upper = 5400.5;
    std::string answer_frame;
    serve::appendAnswerFrame(answer_frame, answer);
    serve::ServeStats stats;
    stats.processedPerShard = {0, 17, 0, 9999999};
    stats.entries = 12;

    const std::vector<std::string> events = wireBodies();
    const std::vector<std::string> queries = {
        serve::encodeQuery(query),
        serve::encodeQuery(serve::BoundQuery{})};
    const std::string answer_body = answer_frame.substr(5);
    const std::string stats_body = serve::encodeStats(stats);

    stats::Rng rng(0xdec0de01);
    serve::BoundQuery scratch;
    for (size_t i = 0; i < iterations(); ++i) {
        for (const std::string &body : events)
            expectOkOrParseError(serve::decodeEvent(mutate(body, rng)), i);
        for (const std::string &body : queries) {
            expectOkOrParseError(
                serve::decodeQueryInto(mutate(body, rng), &scratch), i);
        }
        expectOkOrParseError(serve::decodeAnswer(mutate(answer_body, rng)),
                             i);
        expectOkOrParseError(serve::decodeStats(mutate(stats_body, rng)),
                             i);

        // The frame header: a complete frame, a partial one (false), or
        // an oversize length (error); never a payload past the buffer.
        const std::string framed = mutate(answer_frame, rng);
        std::string_view payload;
        size_t consumed = 0;
        auto unframed = serve::unframe(framed, &payload, &consumed);
        expectOkOrParseError(unframed, i);
        if (unframed.ok() && unframed.value()) {
            EXPECT_LE(consumed, framed.size()) << i;
        }
    }
}

/** Submit at time zero and start @p wait later. */
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

serve::BoundRegistry::Options
shardOptions()
{
    serve::BoundRegistry::Options options;
    options.shards = 1;
    options.epochSeconds = 10.0;
    options.trainJobs = 4;
    return options;
}

std::string
saveShardZero(serve::BoundRegistry &registry)
{
    persist::StateWriter writer;
    auto lock = registry.lockShard(0);
    EXPECT_TRUE(registry.saveShard(0, writer).ok());
    return writer.take();
}

TEST(FuzzDecode, FailedShardLoadLeavesTheRegistryUntouched)
{
    // The pin test's shard: three keys, pending jobs, a client fence.
    serve::BoundRegistry source(shardOptions());
    for (uint64_t i = 1; i <= 12; ++i) {
        const double wait = 5.0 + static_cast<double>((i * 37) % 11);
        feedWait(source, i, wait, "m1", "q", 4);
        feedWait(source, i, wait * 3.0, "m1", "wide", 128);
        feedWait(source, i, wait + 0.5, "m2", "q", 1);
    }
    serve::JobEvent pending;
    pending.jobId = 900;
    pending.time = 7.5;
    pending.machine = "m1";
    pending.queue = "q";
    pending.procs = 4;
    pending.clientId = "client-7";
    pending.seq = 900;
    ASSERT_TRUE(source.apply(pending).applied);
    const std::string payload = saveShardZero(source);

    serve::BoundRegistry target(shardOptions());
    feedWait(target, 1, 99.0, "other", "q", 2);
    stats::Rng rng(0x5a4d0002);
    for (size_t i = 0; i < iterations(); ++i) {
        const std::string digest_before = target.digest();
        const std::string mutated = mutate(payload, rng);
        persist::StateReader reader(mutated, "shard");
        auto loaded = target.loadShard(0, reader);
        expectOkOrParseError(loaded, i);
        if (!loaded.ok()) {
            EXPECT_EQ(target.digest(), digest_before) << i;
        }
    }
}

TEST(FuzzDecode, ShardDeclaringTwoToTheSixtySecondEntriesFailsAtOnce)
{
    // An empty shard ends with its u64 entry count; declare 2^62
    // entries and end there. The first entry's first read must fail,
    // not 2^62 iterations of anything.
    serve::BoundRegistry empty(shardOptions());
    std::string payload = saveShardZero(empty);
    ASSERT_GE(payload.size(), 8u);
    persist::StateWriter count;
    count.u64(uint64_t{1} << 62);
    payload.replace(payload.size() - 8, 8, count.bytes());

    serve::BoundRegistry target(shardOptions());
    feedWait(target, 1, 99.0, "other", "q", 2);
    const std::string digest_before = target.digest();
    persist::StateReader reader(payload, "shard");
    auto loaded = target.loadShard(0, reader);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.error().str(),
              "shard: u64: truncated state: need 8 bytes at offset " +
                  std::to_string(payload.size()) + ", have 0");
    EXPECT_EQ(target.digest(), digest_before);
}

TEST(FuzzDecode, FailedPredictorLoadLeavesTheStateUntouched)
{
    core::PredictorOptions options;
    options.quantile = 0.9;
    options.confidence = 0.9;
    const core::RareEventTable table(options.quantile);
    options.rareEventTable = &table;
    stats::Rng rng(0x9ed1c702);
    for (const std::string &method : core::knownPredictorMethods()) {
        SCOPED_TRACE(method);
        auto source = core::makePredictor(method, options);
        for (int i = 0; i < 60; ++i) {
            source->observe(10.0 + (i * 13) % 17 + (i >= 30 ? 900.0 : 0.0));
            source->refit();
        }
        persist::StateWriter saved;
        ASSERT_TRUE(source->saveState(saved).ok());
        const std::string payload = saved.take();

        auto target = core::makePredictor(method, options);
        target->observe(3.0);
        target->refit();
        for (size_t i = 0; i < iterations(); ++i) {
            persist::StateWriter before;
            ASSERT_TRUE(target->saveState(before).ok());
            const std::string mutated = mutate(payload, rng);
            persist::StateReader reader(mutated, "predictor");
            auto loaded = target->loadState(reader);
            expectOkOrParseError(loaded, i);
            if (!loaded.ok()) {
                persist::StateWriter after;
                ASSERT_TRUE(target->saveState(after).ok());
                EXPECT_EQ(after.bytes(), before.bytes()) << i;
            }
        }
    }
}

} // namespace
} // namespace qdel
