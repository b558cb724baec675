/**
 * @file
 * BoundRegistry contract tests. The load-bearing one compares the
 * registry's published snapshots against a standalone reference
 * predictor driven by hand with the Section 5.1 epoch rule: every grid
 * answer must bit-match boundAt() on the frozen reference — that is
 * the scoreBatch frozen-bound invariant carried to the serve read
 * path.
 */

#include <atomic>
#include <chrono>
#include <cmath>
#include <limits>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/predictor_factory.hh"
#include "core/rare_event.hh"
#include "persist/state_codec.hh"
#include "serve/bound_registry.hh"
#include "sim/replay/evaluation.hh"

namespace qdel {
namespace serve {
namespace {

/** Deterministic wait series with enough spread to provoke refits. */
std::vector<double>
syntheticWaits(size_t n, uint32_t seed)
{
    std::mt19937 rng(seed);
    std::lognormal_distribution<double> dist(5.0, 1.5);
    std::vector<double> waits;
    waits.reserve(n);
    for (size_t i = 0; i < n; ++i)
        waits.push_back(dist(rng));
    return waits;
}

/**
 * Feed one submit/start pair carrying @p wait into the registry.
 * Submits at time zero so the observed wait (start − submit) is the
 * given double bit-exactly; a nonzero submit time would round away
 * low bits of the difference.
 */
void
feedWait(BoundRegistry &registry, uint64_t job_id, double wait,
         const std::string &machine = "m", const std::string &queue = "q",
         int procs = 4)
{
    JobEvent submit;
    submit.kind = EventKind::Submit;
    submit.jobId = job_id;
    submit.time = 0.0;
    submit.machine = machine;
    submit.queue = queue;
    submit.procs = procs;
    ASSERT_TRUE(registry.apply(submit).applied);
    JobEvent start = submit;
    start.kind = EventKind::Start;
    start.time = wait;
    ASSERT_TRUE(registry.apply(start).applied);
}

TEST(GridIndex, SnapsToNearestAndHandlesNaN)
{
    EXPECT_EQ(kGridQuantiles[gridIndexFor(0.95)], 0.95);
    EXPECT_EQ(kGridQuantiles[gridIndexFor(0.951)], 0.95);
    EXPECT_EQ(kGridQuantiles[gridIndexFor(0.0)], 0.25);
    EXPECT_EQ(kGridQuantiles[gridIndexFor(1.0)], 0.99);
    EXPECT_EQ(kGridQuantiles[gridIndexFor(-5.0)], 0.25);
    EXPECT_EQ(kGridQuantiles[gridIndexFor(
                  std::numeric_limits<double>::quiet_NaN())],
              0.95);
}

TEST(BoundRegistryOptions, ValidateRejectsBadKnobs)
{
    BoundRegistry::Options options;
    EXPECT_TRUE(options.validate().ok());
    options.shards = 0;
    EXPECT_FALSE(options.validate().ok());
    options.shards = 8;
    options.epochSeconds = -1.0;
    EXPECT_FALSE(options.validate().ok());
    options.epochSeconds = std::numeric_limits<double>::quiet_NaN();
    EXPECT_FALSE(options.validate().ok());
    options.epochSeconds = 0.0;  // refit at every submit
    EXPECT_TRUE(options.validate().ok());
    options.trainJobs = 0;  // score from the first submit
    EXPECT_TRUE(options.validate().ok());
    options.method = "no-such-method";
    EXPECT_FALSE(options.validate().ok());
}

TEST(BoundRegistryOptions, OffGridQuantileIsRejected)
{
    // Calibration scores upper[gridIndexFor(quantile)], so 0.93 would
    // silently judge the 0.95 bound.
    BoundRegistry::Options options;
    options.quantile = 0.93;
    const auto valid = options.validate();
    ASSERT_FALSE(valid.ok());
    EXPECT_EQ(valid.error().field, "quantile");
    for (double q : kGridQuantiles) {
        options.quantile = q;
        EXPECT_TRUE(options.validate().ok()) << q;
    }
}

TEST(BoundRegistry, PublishedGridBitMatchesReferencePredictor)
{
    BoundRegistry::Options options;
    options.shards = 4;
    options.epochSeconds = 300.0;
    options.trainJobs = 60;
    BoundRegistry registry(options);

    // Reference: a standalone predictor driven by hand with the epoch
    // rule — epochs every epochSeconds from the first submit; a start
    // fires the epochs strictly before it, then observes; a submit
    // fires the epochs at or before it, then finalizes + refits at the
    // trainJobs-th submit.
    core::RareEventTable rare_table(options.quantile);
    core::PredictorOptions predictor_options;
    predictor_options.quantile = options.quantile;
    predictor_options.confidence = options.confidence;
    predictor_options.rareEventTable = &rare_table;
    auto reference = core::makePredictor(options.method, predictor_options);

    // The registry publishes a grid only when the bound moves; between
    // moves the published bounds stay frozen even though the live
    // predictor history keeps growing. Mirror that: snapshot the
    // reference grid at each refit and trim, and compare the
    // registry's answers against the *last* reference grid.
    double ref_upper[kGridCount];
    double ref_lower[kGridCount];
    const auto capture_grid = [&]() {
        for (size_t gi = 0; gi < kGridCount; ++gi) {
            ref_upper[gi] =
                reference->boundAt(kGridQuantiles[gi], true).value;
            ref_lower[gi] =
                reference->boundAt(kGridQuantiles[gi], false).value;
        }
    };
    double next_epoch = 0.0;  // armed by the first submit, at t = 0
    const auto fire_epochs = [&](double time, bool inclusive) {
        while (next_epoch < time || (inclusive && next_epoch == time)) {
            reference->refit();
            capture_grid();
            next_epoch += options.epochSeconds;
        }
    };

    const auto waits = syntheticWaits(200, 42);
    BoundQuery query;
    query.machine = "m";
    query.queue = "q";
    query.procs = 4;
    for (size_t i = 0; i < waits.size(); ++i) {
        const double submit_time = 60.0 * static_cast<double>(i);
        JobEvent submit;
        submit.kind = EventKind::Submit;
        submit.jobId = i + 1;
        submit.time = submit_time;
        submit.machine = "m";
        submit.queue = "q";
        submit.procs = 4;
        ASSERT_TRUE(registry.apply(submit).applied);
        fire_epochs(submit_time, /*inclusive=*/true);
        if (i == options.trainJobs) {
            reference->finalizeTraining();
            reference->refit();
            capture_grid();
        }

        JobEvent start = submit;
        start.kind = EventKind::Start;
        start.time = submit_time + waits[i];
        ASSERT_TRUE(registry.apply(start).applied);
        fire_epochs(start.time, /*inclusive=*/false);
        const size_t trims = sim::predictorTrimCount(*reference);
        reference->observe(start.time - submit_time);
        if (sim::predictorTrimCount(*reference) != trims)
            capture_grid();

        for (size_t gi = 0; gi < kGridCount; ++gi) {
            query.quantile = kGridQuantiles[gi];
            const BoundAnswer answer = registry.query(query);
            ASSERT_TRUE(answer.known);
            EXPECT_EQ(answer.quantile, kGridQuantiles[gi]);
            // Bit-exact, including +inf before training finalizes.
            ASSERT_EQ(answer.upper, ref_upper[gi])
                << "job " << i + 1 << " q=" << kGridQuantiles[gi];
            ASSERT_EQ(answer.lower, ref_lower[gi])
                << "job " << i + 1 << " q=" << kGridQuantiles[gi];
        }
    }
    EXPECT_EQ(registry.stats().entries, 1u);
}

TEST(BoundRegistry, SnapshotVersionBumpsOnlyWhenBoundMoves)
{
    BoundRegistry::Options options;
    options.epochSeconds = 100.0;
    options.trainJobs = 1000;  // never finalizes in this test
    BoundRegistry registry(options);

    BoundQuery query;
    query.machine = "m";
    query.queue = "q";
    query.procs = 4;
    const auto event = [](EventKind kind, uint64_t job, double time) {
        JobEvent e;
        e.kind = kind;
        e.jobId = job;
        e.time = time;
        e.machine = "m";
        e.queue = "q";
        e.procs = 4;
        return e;
    };

    // Nine jobs inside the first epoch: only the first submit's
    // epoch-0 refit publishes.
    for (uint64_t job = 1; job <= 9; ++job) {
        const double t = 10.0 * static_cast<double>(job - 1);
        ASSERT_TRUE(registry.apply(event(EventKind::Submit, job, t)).applied);
        ASSERT_TRUE(
            registry.apply(event(EventKind::Start, job, t + 5.0)).applied);
    }
    const BoundAnswer before = registry.query(query);
    ASSERT_TRUE(before.known);
    EXPECT_EQ(before.version, 1u) << "no epoch ticked after the first";

    // The epoch at t=100 follows nine observations: one publish.
    ASSERT_TRUE(registry.apply(event(EventKind::Submit, 10, 100.0)).applied);
    const BoundAnswer after = registry.query(query);
    EXPECT_EQ(after.version, 2u);
    EXPECT_EQ(after.observations, 9u);

    // The epoch at t=200 follows no new observation: the bound cannot
    // have moved, so nothing is published.
    ASSERT_TRUE(registry.apply(event(EventKind::Submit, 11, 250.0)).applied);
    EXPECT_EQ(registry.query(query).version, 2u);
}

TEST(BoundRegistry, NonFiniteEventTimesAreRejected)
{
    BoundRegistry registry(BoundRegistry::Options{});
    JobEvent submit;
    submit.kind = EventKind::Submit;
    submit.jobId = 1;
    submit.machine = "m";
    submit.queue = "q";
    submit.procs = 1;
    for (double bad : {std::numeric_limits<double>::infinity(),
                       -std::numeric_limits<double>::infinity(),
                       std::numeric_limits<double>::quiet_NaN()}) {
        submit.time = bad;
        EXPECT_STREQ(registry.apply(submit).rejectReason,
                     "event time is not finite");
    }
    EXPECT_EQ(registry.stats().entries, 0u) << "rejects create no entry";

    submit.time = 10.0;
    ASSERT_TRUE(registry.apply(submit).applied);
    JobEvent start = submit;
    start.kind = EventKind::Start;
    start.time = std::numeric_limits<double>::infinity();
    EXPECT_STREQ(registry.apply(start).rejectReason,
                 "event time is not finite");
    start.time = 20.0;
    EXPECT_TRUE(registry.apply(start).applied);
}

TEST(BoundRegistry, RejectsAreDeterministicAndCounted)
{
    BoundRegistry::Options options;
    options.shards = 1;
    BoundRegistry registry(options);

    JobEvent submit;
    submit.kind = EventKind::Submit;
    submit.jobId = 5;
    submit.time = 100.0;
    submit.machine = "m";
    submit.queue = "q";
    submit.procs = 1;
    EXPECT_TRUE(registry.apply(submit).applied);

    // Duplicate submit.
    const auto duplicate = registry.apply(submit);
    EXPECT_FALSE(duplicate.applied);
    EXPECT_STREQ(duplicate.rejectReason, "duplicate submit for job id");

    // Start for a key nobody ever submitted to.
    JobEvent other_key;
    other_key.kind = EventKind::Start;
    other_key.jobId = 5;
    other_key.time = 150.0;
    other_key.machine = "elsewhere";
    other_key.queue = "q";
    other_key.procs = 1;
    EXPECT_STREQ(registry.apply(other_key).rejectReason,
                 "start for unknown key");

    // Start without a pending submit (wrong job id).
    JobEvent wrong_id = submit;
    wrong_id.kind = EventKind::Start;
    wrong_id.jobId = 6;
    wrong_id.time = 150.0;
    EXPECT_STREQ(registry.apply(wrong_id).rejectReason,
                 "start without a pending submit");

    // Start before submit: negative wait must never reach observe().
    JobEvent early = submit;
    early.kind = EventKind::Start;
    early.time = 99.0;
    EXPECT_STREQ(registry.apply(early).rejectReason,
                 "start time precedes submit time");

    // NaN start time rejects through the same guard.
    JobEvent nan_start = submit;
    nan_start.kind = EventKind::Start;
    nan_start.time = std::numeric_limits<double>::quiet_NaN();
    EXPECT_STREQ(registry.apply(nan_start).rejectReason,
                 "start time precedes submit time");

    // Done without a running job.
    JobEvent done = submit;
    done.kind = EventKind::Done;
    EXPECT_STREQ(registry.apply(done).rejectReason,
                 "done without a running job");

    // The pending submit is still there: a correct start applies.
    JobEvent start = submit;
    start.kind = EventKind::Start;
    start.time = 160.0;
    EXPECT_TRUE(registry.apply(start).applied);
    EXPECT_TRUE(registry.apply(done).applied);

    // processed = applied + rejected, all on shard 0.
    EXPECT_EQ(registry.processedCount(0), 9u);
}

TEST(BoundRegistry, UnknownKeyAnswersUnknown)
{
    BoundRegistry registry(BoundRegistry::Options{});
    BoundQuery query;
    query.machine = "nobody";
    query.queue = "nothing";
    const BoundAnswer answer = registry.query(query);
    EXPECT_FALSE(answer.known);
    EXPECT_EQ(answer.confidence, 0.95);
    EXPECT_EQ(answer.quantile, 0.95);
}

TEST(BoundRegistry, KeysRouteToStableShardsAndBucketsShareEntries)
{
    BoundRegistry::Options options;
    options.shards = 8;
    options.epochSeconds = 0.0;  // refit (and publish) at every submit
    BoundRegistry registry(options);
    // procs 1 and 4 share a bucket, so they share an entry and shard.
    EXPECT_EQ(registry.shardForKey("m", "q", procBucketFor(1)),
              registry.shardForKey("m", "q", procBucketFor(4)));
    feedWait(registry, 1, 10.0, "m", "q", 1);
    feedWait(registry, 2, 20.0, "m", "q", 4);
    EXPECT_EQ(registry.stats().entries, 1u);
    // A third submit in the bucket refits over both observations.
    JobEvent submit;
    submit.kind = EventKind::Submit;
    submit.jobId = 3;
    submit.machine = "m";
    submit.queue = "q";
    submit.procs = 2;
    ASSERT_TRUE(registry.apply(submit).applied);
    BoundQuery query;
    query.machine = "m";
    query.queue = "q";
    query.procs = 3;
    EXPECT_EQ(registry.query(query).observations, 2u);
}

TEST(BoundRegistry, SaveLoadRoundTripsBitIdentically)
{
    BoundRegistry::Options options;
    options.shards = 2;
    options.epochSeconds = 10.0;
    options.trainJobs = 30;
    BoundRegistry registry(options);
    const auto waits = syntheticWaits(80, 3);
    for (size_t i = 0; i < waits.size(); ++i) {
        feedWait(registry, i + 1, waits[i], "m1", "q", 4);
        feedWait(registry, i + 1, waits[i] * 2.0, "m2", "q", 64);
    }
    // Leave a pending submit in flight so the map round-trips too.
    JobEvent pending;
    pending.kind = EventKind::Submit;
    pending.jobId = 9999;
    pending.time = 5.5;
    pending.machine = "m1";
    pending.queue = "q";
    pending.procs = 4;
    ASSERT_TRUE(registry.apply(pending).applied);

    const std::string digest_before = registry.digest();

    BoundRegistry restored(options);
    for (size_t s = 0; s < registry.shardCount(); ++s) {
        persist::StateWriter writer;
        {
            auto lock = registry.lockShard(s);
            ASSERT_TRUE(registry.saveShard(s, writer).ok());
        }
        persist::StateReader reader(writer.bytes(), "shard");
        ASSERT_TRUE(restored.loadShard(s, reader).ok());
        ASSERT_TRUE(reader.expectEnd().ok());
    }
    EXPECT_EQ(restored.digest(), digest_before);

    // The restored registry continues identically: same next event,
    // same digests afterwards.
    feedWait(registry, 500, 777.0, "m1", "q", 4);
    feedWait(restored, 500, 777.0, "m1", "q", 4);
    EXPECT_EQ(restored.digest(), registry.digest());
}

TEST(BoundRegistry, LoadShardRejectsForeignConfiguration)
{
    BoundRegistry::Options options;
    options.shards = 2;
    BoundRegistry registry(options);
    feedWait(registry, 1, 10.0);

    persist::StateWriter writer;
    {
        auto lock = registry.lockShard(0);
        ASSERT_TRUE(registry.saveShard(0, writer).ok());
    }

    BoundRegistry::Options different = options;
    different.quantile = 0.90;
    BoundRegistry other(different);
    persist::StateReader reader(writer.bytes(), "shard");
    auto loaded = other.loadShard(0, reader);
    ASSERT_FALSE(loaded.ok());
    EXPECT_NE(loaded.error().str().find("different serve configuration"),
              std::string::npos);
}

TEST(BoundRegistry, LoadShardRefusesTheV3Layout)
{
    // v4 inserted the replay core's state into every entry; a v3
    // payload must be refused, not parsed with the new layout.
    BoundRegistry registry(BoundRegistry::Options{});
    feedWait(registry, 1, 10.0);
    persist::StateWriter writer;
    {
        auto lock = registry.lockShard(0);
        ASSERT_TRUE(registry.saveShard(0, writer).ok());
    }
    std::string payload = writer.take();
    persist::StateWriter v3_header;
    persist::writeStateHeader(v3_header, "qdel-serve-shard", 3);
    persist::StateWriter v4_header;
    persist::writeStateHeader(v4_header, "qdel-serve-shard", 4);
    ASSERT_EQ(payload.compare(0, v4_header.bytes().size(), v4_header.bytes()),
              0);
    payload.replace(0, v4_header.bytes().size(), v3_header.bytes());

    BoundRegistry other(BoundRegistry::Options{});
    persist::StateReader reader(payload, "shard");
    auto loaded = other.loadShard(0, reader);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.error().field, "version");
}

TEST(BoundRegistry, EnumerateIsKeySorted)
{
    BoundRegistry registry(BoundRegistry::Options{});
    feedWait(registry, 1, 10.0, "zeta", "q", 1);
    feedWait(registry, 1, 10.0, "alpha", "q", 1);
    feedWait(registry, 1, 10.0, "alpha", "a", 1);
    const auto views = registry.enumerate();
    ASSERT_EQ(views.size(), 3u);
    EXPECT_EQ(views[0].machine, "alpha");
    EXPECT_EQ(views[0].queue, "a");
    EXPECT_EQ(views[1].machine, "alpha");
    EXPECT_EQ(views[1].queue, "q");
    EXPECT_EQ(views[2].machine, "zeta");
}

TEST(BoundRegistry, ConcurrentQueriesDuringWritesStayCoherent)
{
    // Readers race a writer; every answer must be internally
    // consistent (a version implies its observation count is at least
    // the count the previous version published — monotone per reader).
    BoundRegistry::Options options;
    options.shards = 2;
    // feedWait submits every job at t = 0, so an epoch rule would
    // rarely fire; refitting at every submit republishes once per job
    // and keeps the readers racing a steady stream of publishes.
    options.epochSeconds = 0.0;
    options.trainJobs = 20;
    BoundRegistry registry(options);
    feedWait(registry, 0, 1.0);

    std::atomic<bool> stop{false};
    std::atomic<uint64_t> answered{0};
    std::vector<std::thread> readers;
    for (int t = 0; t < 3; ++t) {
        readers.emplace_back([&] {
            BoundQuery query;
            query.machine = "m";
            query.queue = "q";
            query.procs = 4;
            uint64_t last_version = 0;
            // do-while: every reader answers at least once even if the
            // writer finishes before this thread is scheduled.
            do {
                const BoundAnswer answer = registry.query(query);
                ASSERT_TRUE(answer.known);
                ASSERT_GE(answer.version, last_version)
                    << "published versions must be monotone";
                last_version = answer.version;
                answered.fetch_add(1, std::memory_order_relaxed);
            } while (!stop.load(std::memory_order_relaxed));
        });
    }
    const auto waits = syntheticWaits(400, 11);
    for (size_t i = 0; i < waits.size(); ++i)
        feedWait(registry, i + 1, waits[i]);
    stop.store(true);
    for (auto &reader : readers)
        reader.join();
    EXPECT_GT(answered.load(), 0u);
    BoundQuery query;
    query.machine = "m";
    query.queue = "q";
    query.procs = 4;
    EXPECT_GE(registry.query(query).version, waits.size())
        << "every submit after an observation republishes";
}

TEST(BoundRegistry, FarFutureTimesAndLongGapsApplyPromptly)
{
    // A long quiet gap moves the epoch clock in one step rather than
    // one iteration per idle epoch, and a time where one epoch is
    // below the resolution of a double (1e20 + 300 == 1e20) is
    // refused, so no single event can stall a shard.
    BoundRegistry registry(BoundRegistry::Options{});  // 300 s epochs
    const auto begin = std::chrono::steady_clock::now();
    JobEvent submit;
    submit.kind = EventKind::Submit;
    submit.jobId = 1;
    submit.machine = "m";
    submit.queue = "q";
    submit.procs = 1;
    submit.time = 1e20;
    EXPECT_STREQ(registry.apply(submit).rejectReason,
                 "event time is too large for the epoch length");
    EXPECT_EQ(registry.stats().entries, 0u);

    JobEvent start = submit;
    start.kind = EventKind::Start;
    for (double t : {0.0, 1e15, 2e15}) {
        submit.time = t;
        ASSERT_TRUE(registry.apply(submit).applied) << t;
        start.time = t + 512.0;  // exact at 2e15, where ulp is 0.25
        ASSERT_TRUE(registry.apply(start).applied) << t;
        ++submit.jobId;
        start.jobId = submit.jobId;
    }
    start.time = 1e20;  // a start is held to the same limit
    submit.time = 3e15;
    ASSERT_TRUE(registry.apply(submit).applied);
    EXPECT_STREQ(registry.apply(start).rejectReason,
                 "event time is too large for the epoch length");
    EXPECT_LT(std::chrono::steady_clock::now() - begin,
              std::chrono::seconds(1));
}

} // namespace
} // namespace serve
} // namespace qdel
