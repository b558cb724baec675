/**
 * @file
 * Network chaos sweep — the PR's acceptance property for the serve
 * front end: for every netfault kind (short read, short write,
 * connection reset, accept failure, stall), at every socket-op
 * trigger window, a client that retries idempotently (stable clientId
 * + per-event seq) against a faulted server ends with a registry
 * digest *byte-identical* to a fault-free run, with every event
 * applied exactly once — retried duplicates are fenced server-side,
 * never re-applied.
 */

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cstdlib>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "persist/state_codec.hh"
#include "serve/netfault.hh"
#include "serve/server.hh"
#include "serve/service.hh"
#include "serve/wire.hh"
#include "util/string_utils.hh"

namespace qdel {
namespace serve {
namespace {

/** Socket-op windows swept per kind; QDEL_NETFAULT_WINDOWS widens the
 *  sweep in CI (ops beyond the stream's op count are no-fire runs,
 *  which must also match the reference digest). */
size_t
sweepWindows()
{
    if (const char *env = std::getenv("QDEL_NETFAULT_WINDOWS")) {
        if (auto parsed = parseInt(env); parsed && *parsed > 0)
            return static_cast<size_t>(*parsed);
    }
    return 12;
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
    // The idempotency tags the retry contract rests on.
    for (size_t i = 0; i < events.size(); ++i) {
        events[i].clientId = "sweep";
        events[i].seq = i + 1;
    }
    return events;
}

ServiceConfig
sweepConfig()
{
    ServiceConfig config;  // ephemeral: the digest covers memory state
    config.registry.shards = 2;
    config.registry.epochSeconds = 8;
    config.registry.trainJobs = 20;
    return config;
}

/**
 * Minimal retrying client: one binary connection, reconnect + resend
 * on any socket-level failure. Safe because every event carries
 * (clientId, seq) — a resend of an already-processed event dedups.
 */
class RetryingClient
{
  public:
    explicit RetryingClient(int port) : port_(port) {}
    ~RetryingClient() { disconnect(); }

    /** Deliver @p event, retrying across connection failures.
     *  @return false only when every attempt failed. */
    bool
    deliver(const JobEvent &event)
    {
        const std::string request =
            frameRequest(Opcode::Event, encodeEvent(event));
        for (int attempt = 0; attempt < 8; ++attempt) {
            if (fd_ < 0 && !connect())
                continue;
            if (!sendAll(request)) {
                disconnect();
                continue;
            }
            std::string payload;
            if (!readFrame(&payload) || payload.empty()) {
                disconnect();
                continue;
            }
            const auto status = static_cast<Status>(
                static_cast<uint8_t>(payload[0]));
            if (status == Status::Shed) {
                // No pending bound in the sweep config, so a shed here
                // would be a bug; surface it as a failed delivery.
                disconnect();
                return false;
            }
            // Ok (applied, deterministically rejected, or deduped) and
            // Error both mean the server processed the frame.
            return status == Status::Ok;
        }
        return false;
    }

  private:
    bool
    connect()
    {
        fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
        if (fd_ < 0)
            return false;
        struct timeval timeout;
        timeout.tv_sec = 2;
        timeout.tv_usec = 0;
        ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout,
                     sizeof(timeout));
        struct sockaddr_in address;
        std::memset(&address, 0, sizeof(address));
        address.sin_family = AF_INET;
        address.sin_port = htons(static_cast<uint16_t>(port_));
        ::inet_pton(AF_INET, "127.0.0.1", &address.sin_addr);
        if (::connect(fd_, reinterpret_cast<struct sockaddr *>(&address),
                      sizeof(address)) != 0) {
            disconnect();
            return false;
        }
        return true;
    }

    void
    disconnect()
    {
        if (fd_ >= 0)
            ::close(fd_);
        fd_ = -1;
    }

    bool
    sendAll(std::string_view bytes)
    {
        size_t sent = 0;
        while (sent < bytes.size()) {
            const ssize_t n = ::send(fd_, bytes.data() + sent,
                                     bytes.size() - sent, MSG_NOSIGNAL);
            if (n <= 0)
                return false;
            sent += static_cast<size_t>(n);
        }
        return true;
    }

    bool
    readFrame(std::string *payload)
    {
        std::string header;
        if (!readExactly(4, &header))
            return false;
        uint32_t length = 0;
        std::memcpy(&length, header.data(), 4);
        if (length > kMaxFrameBytes)
            return false;
        return readExactly(length, payload);
    }

    bool
    readExactly(size_t count, std::string *out)
    {
        out->clear();
        while (out->size() < count) {
            char chunk[4096];
            const size_t want = std::min(count - out->size(),
                                         sizeof(chunk));
            const ssize_t n = ::recv(fd_, chunk, want, 0);
            if (n <= 0)
                return false;
            out->append(chunk, static_cast<size_t>(n));
        }
        return true;
    }

    int port_;
    int fd_ = -1;
};

/** Run the whole stream against a fresh server; @return the digest. */
std::string
runStream(const std::vector<JobEvent> &events, uint64_t *processed)
{
    auto opened = BoundService::open(sweepConfig());
    EXPECT_TRUE(opened.ok());
    auto service = std::move(opened).value();
    ServerOptions options;
    options.maxConnections = 4;
    // Tight deadlines keep the stall-fault runs fast; the client's
    // retry budget comfortably covers one reap + reconnect.
    options.ioTimeoutMs = 250;
    options.idleTimeoutMs = 1000;
    auto server = BoundServer::start(*service, options);
    EXPECT_TRUE(server.ok());

    RetryingClient client(server.value()->port());
    for (const auto &event : events) {
        EXPECT_TRUE(client.deliver(event))
            << "event seq " << event.seq << " lost despite retries";
    }
    server.value()->stop();
    if (processed != nullptr) {
        *processed = 0;
        for (uint64_t count : service->stats().processedPerShard)
            *processed += count;
    }
    return service->digest();
}

class NetfaultChaosSweep : public ::testing::Test
{
  protected:
    void SetUp() override { netfault::reset(); }
    void TearDown() override { netfault::reset(); }
};

TEST_F(NetfaultChaosSweep, EveryFaultWindowMatchesTheFaultFreeDigest)
{
    const auto events = eventStream(24, 7);

    uint64_t reference_processed = 0;
    const std::string reference =
        runStream(events, &reference_processed);
    // Exactly-once: every event processed once, none twice.
    ASSERT_EQ(reference_processed, events.size());

    const netfault::Kind kinds[] = {
        netfault::Kind::ShortRead,  netfault::Kind::ShortWrite,
        netfault::Kind::ConnReset,  netfault::Kind::AcceptFail,
        netfault::Kind::Stall,
    };
    const size_t windows = sweepWindows();
    for (netfault::Kind kind : kinds) {
        for (size_t window = 0; window < windows; ++window) {
            SCOPED_TRACE(std::string(netfault::kindName(kind)) +
                         " @ op " + std::to_string(window * 5));
            netfault::Plan plan;
            plan.kind = kind;
            plan.triggerOp = window * 5;
            plan.seed = 0x9e37 + window;
            netfault::configure(plan);

            uint64_t processed = 0;
            const std::string digest = runStream(events, &processed);
            netfault::reset();

            EXPECT_EQ(digest, reference)
                << "registry state diverged under the fault";
            EXPECT_EQ(processed, events.size())
                << "an event was lost or applied twice";
        }
    }
}

TEST_F(NetfaultChaosSweep, RetriedEventsAreDedupedNotReapplied)
{
    // Direct service-level check of the fence the sweep relies on:
    // the same (clientId, seq) delivered twice applies once.
    auto opened = BoundService::open(sweepConfig());
    ASSERT_TRUE(opened.ok());
    auto service = std::move(opened).value();

    JobEvent submit;
    submit.kind = EventKind::Submit;
    submit.jobId = 1;
    submit.time = 10.0;
    submit.machine = "m";
    submit.queue = "q";
    submit.procs = 4;
    submit.clientId = "c";
    submit.seq = 1;

    auto first = service->ingest(submit);
    ASSERT_TRUE(first.ok());
    EXPECT_TRUE(first.value().applied);
    EXPECT_FALSE(first.value().deduped);
    const std::string after_first = service->digest();

    auto retry = service->ingest(submit);
    ASSERT_TRUE(retry.ok());
    EXPECT_FALSE(retry.value().applied);
    EXPECT_TRUE(retry.value().deduped);
    EXPECT_EQ(service->digest(), after_first)
        << "a deduped retry must not change registry state";

    // A deterministically rejected event advances the fence too: its
    // retry reports deduped instead of re-running the reject.
    JobEvent bogus;
    bogus.kind = EventKind::Start;
    bogus.jobId = 99;
    bogus.time = 5.0;
    bogus.machine = "m";
    bogus.queue = "q";
    bogus.procs = 4;
    bogus.clientId = "c";
    bogus.seq = 2;
    auto rejected = service->ingest(bogus);
    ASSERT_TRUE(rejected.ok());
    EXPECT_FALSE(rejected.value().applied);
    EXPECT_STREQ(rejected.value().rejectReason,
                 "start without a pending submit");
    auto rejected_retry = service->ingest(bogus);
    ASSERT_TRUE(rejected_retry.ok());
    EXPECT_TRUE(rejected_retry.value().deduped);

    // An untagged event (empty clientId) opts out of the fence.
    JobEvent untagged = submit;
    untagged.clientId.clear();
    untagged.jobId = 2;
    auto once = service->ingest(untagged);
    auto twice = service->ingest(untagged);
    ASSERT_TRUE(once.ok());
    ASSERT_TRUE(twice.ok());
    EXPECT_TRUE(once.value().applied);
    EXPECT_FALSE(twice.value().deduped);
    EXPECT_FALSE(twice.value().applied);  // duplicate submit reject
}

TEST_F(NetfaultChaosSweep, ClientSeqFenceSurvivesSaveLoad)
{
    // The fence is part of shard state: a registry restored from a
    // checkpoint must still dedup retries of pre-checkpoint events.
    auto opened = BoundService::open(sweepConfig());
    ASSERT_TRUE(opened.ok());
    auto service = std::move(opened).value();
    const auto events = eventStream(6, 3);
    for (const auto &event : events)
        ASSERT_TRUE(service->ingest(event).ok());

    BoundRegistry restored(sweepConfig().registry);
    for (size_t s = 0; s < service->registry().shardCount(); ++s) {
        persist::StateWriter writer;
        {
            auto &registry = const_cast<BoundRegistry &>(
                service->registry());
            auto lock = registry.lockShard(s);
            ASSERT_TRUE(registry.saveShard(s, writer).ok());
        }
        persist::StateReader reader(writer.bytes(), "shard");
        auto lock = restored.lockShard(s);
        ASSERT_TRUE(restored.loadShard(s, reader).ok());
        ASSERT_TRUE(reader.expectEnd().ok());
    }
    EXPECT_EQ(restored.digest(), service->digest());
    const size_t s = restored.shardForEvent(events.front());
    auto lock = restored.lockShard(s);
    EXPECT_TRUE(restored.isDuplicateLocked(s, events.front()));
}

TEST(NetfaultHook, OneShotFiresAtTheTriggerAndOnlyOnce)
{
    netfault::reset();
    netfault::Plan plan;
    plan.kind = netfault::Kind::ConnReset;
    plan.triggerOp = 2;
    netfault::configure(plan);

    using netfault::detail::Op;
    EXPECT_FALSE(netfault::detail::onOp(Op::Recv, 64).fail);  // op 0
    EXPECT_FALSE(netfault::detail::onOp(Op::Recv, 64).fail);  // op 1
    // Op 2 matches Recv for ConnReset: fires.
    const auto fired = netfault::detail::onOp(Op::Recv, 64);
    EXPECT_TRUE(fired.fail);
    EXPECT_STREQ(fired.reason, "simulated connection reset");
    // One-shot: never again until reconfigured.
    EXPECT_FALSE(netfault::detail::onOp(Op::Recv, 64).fail);
    EXPECT_EQ(netfault::opCount(), 4u);
    netfault::reset();
}

TEST(NetfaultHook, KindsMatchOnlyTheirOps)
{
    using netfault::detail::Op;
    struct Case
    {
        netfault::Kind kind;
        Op matching;
        Op ignored;
    };
    const Case cases[] = {
        {netfault::Kind::ShortRead, Op::Recv, Op::Send},
        {netfault::Kind::ShortWrite, Op::Send, Op::Recv},
        {netfault::Kind::AcceptFail, Op::Accept, Op::Recv},
        {netfault::Kind::Stall, Op::Recv, Op::Accept},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(netfault::kindName(c.kind));
        netfault::Plan plan;
        plan.kind = c.kind;
        plan.triggerOp = 0;
        netfault::configure(plan);
        const auto ignored = netfault::detail::onOp(c.ignored, 32);
        EXPECT_FALSE(ignored.fail || ignored.stall ||
                     ignored.clampBytes > 0);
        const auto fired = netfault::detail::onOp(c.matching, 32);
        EXPECT_TRUE(fired.fail || fired.stall || fired.clampBytes > 0);
    }
    netfault::reset();
}

TEST(NetfaultHook, KindNamesRoundTripThroughParse)
{
    const netfault::Kind kinds[] = {
        netfault::Kind::None,       netfault::Kind::ShortRead,
        netfault::Kind::ShortWrite, netfault::Kind::ConnReset,
        netfault::Kind::AcceptFail, netfault::Kind::Stall,
    };
    for (netfault::Kind kind : kinds) {
        netfault::Kind parsed = netfault::Kind::None;
        EXPECT_TRUE(netfault::parseKind(netfault::kindName(kind),
                                        &parsed));
        EXPECT_EQ(parsed, kind);
    }
    netfault::Kind out = netfault::Kind::None;
    EXPECT_FALSE(netfault::parseKind("bogus", &out));
}

} // namespace
} // namespace serve
} // namespace qdel
