/**
 * @file
 * Kill/resume fault-injection sweep for the serve persistence path —
 * the PR's acceptance property: for every injected fault kind, at
 * every persistence-op window, a crashed-and-reopened service that
 * re-drives the not-yet-applied suffix of the event stream (fenced by
 * the per-shard processed counts) ends with a registry digest and
 * published bound grids *byte-identical* to a service that never
 * crashed.
 */

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "persist/fault_injection.hh"
#include "serve/service.hh"
#include "serve/wire.hh"

namespace qdel {
namespace serve {
namespace {

std::string
freshDir(const std::string &name)
{
    const std::string dir = ::testing::TempDir() + "qdel_srv_rec_" + name;
    std::filesystem::remove_all(dir);
    return dir;
}

std::vector<JobEvent>
eventStream(size_t jobs, uint32_t seed)
{
    std::mt19937 rng(seed);
    std::lognormal_distribution<double> wait(4.0, 1.2);
    const char *machines[] = {"m1", "m2"};
    const int procs[] = {2, 16, 96};
    std::vector<JobEvent> events;
    for (size_t i = 0; i < jobs; ++i) {
        JobEvent submit;
        submit.kind = EventKind::Submit;
        submit.jobId = i + 1;
        submit.time = 50.0 * static_cast<double>(i);
        submit.machine = machines[i % 2];
        submit.queue = "q";
        submit.procs = procs[i % 3];
        events.push_back(submit);
        JobEvent start = submit;
        start.kind = EventKind::Start;
        start.time = submit.time + wait(rng);
        events.push_back(start);
    }
    return events;
}

ServiceConfig
sweepConfig(const std::string &state_dir)
{
    ServiceConfig config;
    config.registry.shards = 2;
    config.registry.epochSeconds = 8;
    config.registry.trainJobs = 20;
    config.stateDir = state_dir;
    config.checkpointEveryEvents = 24;  // faults hit checkpoints too
    return config;
}

/** Canonical text form of every published grid, for bit comparison. */
std::string
boundsFingerprint(const BoundRegistry &registry)
{
    std::string out;
    char line[128];
    for (const auto &view : registry.enumerate()) {
        out += view.machine + "|" + view.queue + "|" +
               std::to_string(view.bucket) + "\n";
        for (size_t i = 0; i < kGridCount; ++i) {
            std::snprintf(line, sizeof(line), "%.17g %.17g\n",
                          view.snapshot.upper[i], view.snapshot.lower[i]);
            out += line;
        }
    }
    return out;
}

/**
 * Op distance between swept fault windows: every 13th op, or
 * total_ops / QDEL_FAULT_ITERATIONS when that is set (windows per
 * fault kind; CI's dense soak raises it).
 */
uint64_t
windowStride(uint64_t total_ops)
{
    if (const char *env = std::getenv("QDEL_FAULT_ITERATIONS")) {
        char *end = nullptr;
        const unsigned long long parsed = std::strtoull(env, &end, 10);
        if (end != env && *end == '\0' && parsed > 0)
            return std::max<uint64_t>(1, total_ops / parsed);
    }
    return 13;
}

class ServeRecoverySweep : public ::testing::Test
{
  protected:
    void SetUp() override { fault::reset(); }
    void TearDown() override { fault::reset(); }
};

TEST_F(ServeRecoverySweep, EveryFaultWindowRecoversByteIdentically)
{
    const auto events = eventStream(60, 9);

    // Reference: the never-crashed run.
    const std::string ref_dir = freshDir("ref");
    std::string want_digest;
    std::string want_bounds;
    uint64_t total_ops = 0;
    {
        auto opened = BoundService::open(sweepConfig(ref_dir));
        ASSERT_TRUE(opened.ok());
        auto &service = *opened.value();
        const uint64_t ops_before = fault::opCount();
        for (const auto &event : events)
            ASSERT_TRUE(service.ingest(event).ok());
        ASSERT_TRUE(service.checkpointAll().ok());
        total_ops = fault::opCount() - ops_before;
        want_digest = service.digest();
        want_bounds = boundsFingerprint(service.registry());
    }
    ASSERT_GT(total_ops, 0u);

    const fault::Kind kinds[] = {
        fault::Kind::ShortWrite,
        fault::Kind::TornWrite,
        fault::Kind::BitFlip,
        fault::Kind::ENoSpc,
        fault::Kind::FailFsync,
        fault::Kind::CrashBeforeRename,
        fault::Kind::FailRename,
        fault::Kind::FailOpen,
    };
    // Sample op windows across the run (every window would be O(ops^2)
    // service opens; the stride still covers open/append/sync/rename
    // ops in every phase of the stream).
    const uint64_t stride = windowStride(total_ops);
    std::vector<uint64_t> windows;
    for (uint64_t op = 0; op < total_ops; op += stride)
        windows.push_back(op);

    int swept = 0;
    for (fault::Kind kind : kinds) {
        for (uint64_t window : windows) {
            SCOPED_TRACE(std::string(fault::kindName(kind)) +
                         " @op " + std::to_string(window));
            const std::string dir =
                freshDir(std::string(fault::kindName(kind)) +
                         "_" + std::to_string(window));

            // Phase 1: drive into the fault. Any step may fail; a
            // failure is the "crash".
            fault::configure({kind, window, 1234});
            {
                auto opened = BoundService::open(sweepConfig(dir));
                if (opened.ok()) {
                    for (const auto &event : events) {
                        if (!opened.value()->ingest(event).ok())
                            break;
                    }
                    // Destroyed without a clean checkpoint: SIGKILL
                    // stand-in.
                }
            }
            fault::reset();

            // Phase 2: reopen and re-drive the suffix, fenced by the
            // per-shard processed counts.
            auto reopened = BoundService::open(sweepConfig(dir));
            ASSERT_TRUE(reopened.ok())
                << "recovery must survive any single fault: "
                << reopened.error().str();
            auto &service = *reopened.value();
            std::vector<uint64_t> skip =
                service.stats().processedPerShard;
            for (const auto &event : events) {
                const size_t s =
                    service.registry().shardForEvent(event);
                if (skip[s] > 0) {
                    --skip[s];
                    continue;
                }
                ASSERT_TRUE(service.ingest(event).ok());
            }
            ASSERT_TRUE(service.checkpointAll().ok());
            EXPECT_EQ(service.digest(), want_digest);
            EXPECT_EQ(boundsFingerprint(service.registry()),
                      want_bounds);

            // And the recovered state itself persists: one more
            // clean reopen lands on the checkpoint.
            auto again = BoundService::open(sweepConfig(dir));
            ASSERT_TRUE(again.ok());
            EXPECT_EQ(again.value()->digest(), want_digest);
            ++swept;
        }
    }
    EXPECT_EQ(swept, static_cast<int>(
                         (sizeof(kinds) / sizeof(kinds[0])) *
                         windows.size()));
}

TEST_F(ServeRecoverySweep, DoubleCrashStillConverges)
{
    // Crash during recovery's own re-checkpoint, then recover again.
    const auto events = eventStream(40, 21);
    const std::string ref_dir = freshDir("dcref");
    std::string want_digest;
    {
        auto opened = BoundService::open(sweepConfig(ref_dir));
        ASSERT_TRUE(opened.ok());
        for (const auto &event : events)
            ASSERT_TRUE(opened.value()->ingest(event).ok());
        ASSERT_TRUE(opened.value()->checkpointAll().ok());
        want_digest = opened.value()->digest();
    }

    const std::string dir = freshDir("dc");
    fault::configure(
        {fault::Kind::ShortWrite, 40, 99});
    {
        auto opened = BoundService::open(sweepConfig(dir));
        if (opened.ok()) {
            for (const auto &event : events) {
                if (!opened.value()->ingest(event).ok())
                    break;
            }
        }
    }
    fault::reset();
    // Second crash: hit the reopen path itself.
    fault::configure(
        {fault::Kind::CrashBeforeRename, 2, 7});
    {
        auto reopened = BoundService::open(sweepConfig(dir));
        if (reopened.ok()) {
            // Drive a little further into the second fault, fencing
            // exactly like a real resuming client would.
            std::vector<uint64_t> skip =
                reopened.value()->stats().processedPerShard;
            for (const auto &event : events) {
                const size_t s =
                    reopened.value()->registry().shardForEvent(event);
                if (skip[s] > 0) {
                    --skip[s];
                    continue;
                }
                if (!reopened.value()->ingest(event).ok())
                    break;
            }
        }
    }
    fault::reset();

    auto final_open = BoundService::open(sweepConfig(dir));
    ASSERT_TRUE(final_open.ok());
    auto &service = *final_open.value();
    std::vector<uint64_t> skip = service.stats().processedPerShard;
    for (const auto &event : events) {
        const size_t s = service.registry().shardForEvent(event);
        if (skip[s] > 0) {
            --skip[s];
            continue;
        }
        ASSERT_TRUE(service.ingest(event).ok());
    }
    ASSERT_TRUE(service.checkpointAll().ok());
    EXPECT_EQ(service.digest(), want_digest);
}

} // namespace
} // namespace serve
} // namespace qdel
