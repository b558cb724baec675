/**
 * @file
 * Golden tests for the HTTP API: the full response bytes (status line,
 * headers and body) of every JSON route, over a real socket. A change
 * to a separator, a quote, a number format or a header shows up here
 * as a byte diff.
 *
 * Each server is fed a fixed in-process event sequence, so every body
 * is deterministic. The only values that vary from run to run are the
 * temporary state directory inside a failed shard's error text (spliced
 * into the golden) and, on GET /debug/conns, each connection's fd and
 * remaining deadline (masked with "#").
 */

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <regex>
#include <string>

#include <gtest/gtest.h>

#include "persist/fault_injection.hh"
#include "serve/server.hh"
#include "serve/service.hh"
#include "serve/wire.hh"

namespace qdel {
namespace serve {
namespace {

int
connectTo(int port)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    struct sockaddr_in address;
    std::memset(&address, 0, sizeof(address));
    address.sin_family = AF_INET;
    address.sin_port = htons(static_cast<uint16_t>(port));
    ::inet_pton(AF_INET, "127.0.0.1", &address.sin_addr);
    EXPECT_EQ(::connect(fd, reinterpret_cast<struct sockaddr *>(&address),
                        sizeof(address)),
              0);
    struct timeval timeout;
    timeout.tv_sec = 5;
    timeout.tv_usec = 0;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    return fd;
}

void
sendAll(int fd, std::string_view bytes)
{
    while (!bytes.empty()) {
        const ssize_t n = ::send(fd, bytes.data(), bytes.size(), 0);
        ASSERT_GT(n, 0);
        bytes.remove_prefix(static_cast<size_t>(n));
    }
}

std::string
readToEof(int fd)
{
    std::string out;
    char chunk[4096];
    for (;;) {
        const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
        if (n <= 0)
            return out;
        out.append(chunk, static_cast<size_t>(n));
    }
}

/** One close-delimited request; the whole response, head and body. */
std::string
http(int port, const std::string &method, const std::string &target)
{
    const int fd = connectTo(port);
    sendAll(fd, method + " " + target + " HTTP/1.1\r\n\r\n");
    std::string response = readToEof(fd);
    ::close(fd);
    return response;
}

/** The exact bytes appendHttpResponse() renders for a close-delimited
 *  reply; spelled out here so a header change also fails. */
std::string
response(const std::string &statusLine, const std::string &type,
         const std::string &body, const std::string &extra = "")
{
    return "HTTP/1.1 " + statusLine + "\r\nContent-Type: " + type +
           "\r\nContent-Length: " + std::to_string(body.size()) + "\r\n" +
           extra + "Connection: close\r\n\r\n" + body;
}

std::string
json(const std::string &body)
{
    return response("200 OK", "application/json", body);
}

JobEvent
event(EventKind kind, uint64_t job, double time, int procs)
{
    JobEvent e;
    e.kind = kind;
    e.jobId = job;
    e.time = time;
    e.machine = "m";
    e.queue = "q";
    e.procs = procs;
    return e;
}

class HttpGoldenTest : public ::testing::Test
{
  protected:
    void
    TearDown() override
    {
        if (server_ != nullptr)
            server_->stop();
        fault::reset();
        if (!dir_.empty())
            std::filesystem::remove_all(dir_);
    }

    static ServiceConfig
    baseConfig()
    {
        ServiceConfig config;
        config.registry.shards = 2;
        config.registry.epochSeconds = 5;
        config.registry.trainJobs = 10;
        return config;
    }

    void
    start(const ServiceConfig &config, size_t reactorThreads = 1)
    {
        auto opened = BoundService::open(config);
        ASSERT_TRUE(opened.ok()) << opened.error().str();
        service_ = std::move(opened).value();
        ServerOptions options;
        options.reactorThreads = reactorThreads;
        auto server = BoundServer::start(*service_, options);
        ASSERT_TRUE(server.ok());
        server_ = std::move(server).value();
    }

    /** A durable service in a per-test state directory. */
    void
    startDurable()
    {
        const auto *test =
            ::testing::UnitTest::GetInstance()->current_test_info();
        dir_ = ::testing::TempDir() + "qdel_http_golden_" + test->name();
        std::filesystem::remove_all(dir_);
        ServiceConfig config = baseConfig();
        config.stateDir = dir_;
        start(config);
    }

    /**
     * The fixed sequence: 40 jobs on (m, q, 4), far past the 10-job
     * training prefix so the key is finalized and scored, plus 3 jobs
     * on (m, q, 64), still in training. Times only increase.
     */
    void
    ingestFixedSequence()
    {
        for (uint64_t job = 1; job <= 40; ++job) {
            const double submit = 100.0 * static_cast<double>(job);
            const double wait = static_cast<double>((job * 37) % 50 + 1);
            ASSERT_TRUE(service_
                            ->ingest(event(EventKind::Submit, job, submit, 4))
                            .ok());
            ASSERT_TRUE(
                service_
                    ->ingest(event(EventKind::Start, job, submit + wait, 4))
                    .ok());
        }
        for (uint64_t job = 41; job <= 43; ++job) {
            const double submit = 100.0 * static_cast<double>(job);
            ASSERT_TRUE(
                service_->ingest(event(EventKind::Submit, job, submit, 64))
                    .ok());
            ASSERT_TRUE(service_
                            ->ingest(event(EventKind::Start, job,
                                           submit + 7.0, 64))
                            .ok());
        }
    }

    /** Fail-stop one shard of a durable service with a failed fsync. */
    void
    failOneShard()
    {
        fault::configure({fault::Kind::FailFsync, 0, 1});
        EXPECT_FALSE(
            service_->ingest(event(EventKind::Submit, 1, 10.0, 4)).ok());
        fault::reset();
        ASSERT_EQ(service_->failedShards(), 1u);
    }

    int port() const { return server_->port(); }

    std::string dir_;
    std::unique_ptr<BoundService> service_;
    std::unique_ptr<BoundServer> server_;
};

TEST_F(HttpGoldenTest, HealthzOk)
{
    start(baseConfig());
    EXPECT_EQ(http(port(), "GET", "/healthz"), json(R"({"status":"ok"})"));
}

TEST_F(HttpGoldenTest, HealthzFailedShardIs503)
{
    startDurable();
    failOneShard();
    EXPECT_EQ(http(port(), "GET", "/healthz"),
              response("503 Service Unavailable", "application/json",
                       R"({"status":"failed","failedShards":1})"));
}

TEST_F(HttpGoldenTest, BoundKnownAndUnknownKeys)
{
    start(baseConfig());
    ingestFixedSequence();
    EXPECT_EQ(http(port(), "GET", "/bound?machine=m&queue=q&procs=4&q=0.5"),
              json(R"({"known":true,"upper":34,"lower":20,"quantile":0.5,)"
                   R"("confidence":0.94999999999999996,"history":39,)"
                   R"("observations":39,"version":40})"));
    // Too little history for the 0.95 bound: upper is +inf -> null.
    EXPECT_EQ(
        http(port(), "GET", "/bound?machine=m&queue=q&procs=4&q=0.95"),
        json(R"({"known":true,"upper":null,"lower":46,)"
             R"("quantile":0.94999999999999996,)"
             R"("confidence":0.94999999999999996,"history":39,)"
             R"("observations":39,"version":40})"));
    EXPECT_EQ(
        http(port(), "GET", "/bound?machine=nope&queue=q&procs=4&q=0.95"),
        json(R"({"known":false,"upper":0,"lower":0,)"
             R"("quantile":0.94999999999999996,)"
             R"("confidence":0.94999999999999996,"history":0,)"
             R"("observations":0,"version":0})"));
}

TEST_F(HttpGoldenTest, StatsAndCheckpoint)
{
    start(baseConfig());
    ingestFixedSequence();
    EXPECT_EQ(http(port(), "GET", "/stats"),
              json(R"({"entries":2,"shards":[0,86]})"));
    EXPECT_EQ(http(port(), "POST", "/checkpoint"), json(R"({"ok":true})"));
}

TEST_F(HttpGoldenTest, EventAppliedDedupedAndRejected)
{
    start(baseConfig());
    const std::string submit =
        "/event?kind=submit&job=9&time=5&machine=h&queue=q&procs=2"
        "&client=web&seq=1";
    EXPECT_EQ(http(port(), "POST", submit), json(R"({"applied":true})"));
    EXPECT_EQ(http(port(), "POST", submit),
              json(R"({"applied":false,"deduped":true})"));
    EXPECT_EQ(http(port(), "POST",
                   "/event?kind=start&job=77&time=9&machine=h&queue=q"
                   "&procs=2"),
              json(R"({"applied":false,)"
                   R"("reason":"start without a pending submit"})"));
}

TEST_F(HttpGoldenTest, EventOverThePendingBoundIsShed)
{
    ServiceConfig config = baseConfig();
    config.maxPendingPerShard = 1;
    config.shedRetryAfterSeconds = 7;
    start(config);
    EXPECT_EQ(http(port(), "POST",
                   "/event?kind=submit&job=1&time=10&machine=m&queue=q"
                   "&procs=4"),
              json(R"({"applied":true})"));
    EXPECT_EQ(http(port(), "POST",
                   "/event?kind=submit&job=2&time=11&machine=m&queue=q"
                   "&procs=4"),
              response("503 Service Unavailable", "text/plain",
                       "overloaded: shard pending bound exceeded\n",
                       "Retry-After: 7\r\n"));
}

TEST_F(HttpGoldenTest, DebugCalibrationAfterAFixedSequence)
{
    start(baseConfig());
    ingestFixedSequence();
    EXPECT_EQ(
        http(port(), "GET", "/debug/calibration"),
        json(R"({"confidence":0.94999999999999996,)"
             R"("quantile":0.94999999999999996,"windowCapacity":256,)"
             R"("entries":2,"scoredEntries":1,"failingEntries":0,)"
             R"("worstCoverage":1,"maxUndercoverage":0,"rows":[)"
             R"({"machine":"m","queue":"q","bucket":0,"bucketLabel":"1-4",)"
             R"("observations":40,"finalized":true,"scored":30,"hits":30,)"
             R"("infinite":30,"windowCount":30,"windowHits":30,)"
             R"("lifetimeCoverage":1,"windowCoverage":1,)"
             R"("drift":0.050000000000000044,"pValue":1,"failing":false},)"
             R"({"machine":"m","queue":"q","bucket":2,)"
             R"("bucketLabel":"17-64","observations":3,"finalized":false,)"
             R"("scored":0,"hits":0,"infinite":0,"windowCount":0,)"
             R"("windowHits":0,"lifetimeCoverage":-1,"windowCoverage":-1,)"
             R"("drift":0,"pValue":1,"failing":false}]})"));
}

TEST_F(HttpGoldenTest, DebugShardsNonDurable)
{
    start(baseConfig());
    ingestFixedSequence();
    EXPECT_EQ(
        http(port(), "GET", "/debug/shards"),
        json(R"({"durable":false,"shards":[)"
             R"({"shard":0,"entries":0,"pending":0,"applied":0,)"
             R"("rejected":0,"clients":0,"walSinceCheckpoint":0,)"
             R"("failed":false},)"
             R"({"shard":1,"entries":2,"pending":0,"applied":86,)"
             R"("rejected":0,"clients":0,"walSinceCheckpoint":0,)"
             R"("failed":false}]})"));
}

TEST_F(HttpGoldenTest, DebugShardsDurableWithAFailedShard)
{
    startDurable();
    failOneShard();
    std::string golden =
        R"({"durable":true,"shards":[)"
        R"({"shard":0,"entries":0,"pending":0,"applied":0,)"
        R"("rejected":0,"clients":0,"walSinceCheckpoint":0,)"
        R"("failed":false},)"
        R"({"shard":1,"entries":1,"pending":1,"applied":1,)"
        R"("rejected":0,"clients":0,"walSinceCheckpoint":0,)"
        R"("failed":true,"failure":"<dir>/shard-0001/)"
        R"(wal-0000000000.qdw: fsync: simulated fsync failure )"
        R"x((fault injection)"}]})x";
    golden.replace(golden.find("<dir>"), 5, dir_);
    EXPECT_EQ(http(port(), "GET", "/debug/shards"), json(golden));
}

TEST_F(HttpGoldenTest, DebugConnsWithFdAndDeadlineMasked)
{
    // Two loops. A binary connection that pinged is placed on loop 0;
    // the requesting connection then lands on the emptier loop 1 and
    // is rendered before its first request was accounted.
    start(baseConfig(), /*reactorThreads=*/2);
    const int binary = connectTo(port());
    sendAll(binary, frameRequest(Opcode::Ping, ""));
    char reply[9];
    ASSERT_EQ(::recv(binary, reply, sizeof(reply), MSG_WAITALL), 9);
    std::string body = http(port(), "GET", "/debug/conns");
    ::close(binary);
    body = std::regex_replace(body, std::regex("\"fd\":[0-9]+"), "\"fd\":#");
    body = std::regex_replace(body, std::regex("\"deadlineMs\":[-+0-9.e]+"),
                              "\"deadlineMs\":#");
    const std::string masked = body.substr(body.find("\r\n\r\n") + 4);
    EXPECT_EQ(masked,
              R"({"loops":[)"
              R"({"loop":0,"connCount":1,"conns":[{"fd":#,)"
              R"("proto":"binary","inBytes":0,"outBytes":0,)"
              R"("idleDeadline":true,"deadlineMs":#}]},)"
              R"({"loop":1,"connCount":1,"conns":[{"fd":#,)"
              R"("proto":"sniff","inBytes":0,"outBytes":0,)"
              R"("idleDeadline":true,"deadlineMs":#}]}]})");
}

} // namespace
} // namespace serve
} // namespace qdel
