/**
 * @file
 * End-to-end socket tests: a real BoundServer on an ephemeral port,
 * exercised over loopback with both protocols — binary framing
 * (ping/event/query/stats), the HTTP fallback (healthz, bound, event,
 * metrics, 404), the protocol sniff under byte-dribbling clients, the
 * corrupt-length teardown, and the group commit of a durable server
 * (one fsync per dirty shard per wake, acks only after it).
 */

#include <arpa/inet.h>
#include <netinet/in.h>
#include <dirent.h>
#include <fcntl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/domain_metrics.hh"
#include "obs/events.hh"
#include "obs/metrics.hh"
#include "persist/fault_injection.hh"
#include "persist/state_codec.hh"
#include "serve/server.hh"
#include "serve/service.hh"
#include "serve/wire.hh"

namespace qdel {
namespace serve {
namespace {

/** Blocking loopback client for one test connection. */
class Client
{
  public:
    explicit Client(int port)
    {
        fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
        struct sockaddr_in address;
        std::memset(&address, 0, sizeof(address));
        address.sin_family = AF_INET;
        address.sin_port = htons(static_cast<uint16_t>(port));
        ::inet_pton(AF_INET, "127.0.0.1", &address.sin_addr);
        connected_ =
            ::connect(fd_, reinterpret_cast<struct sockaddr *>(&address),
                      sizeof(address)) == 0;
    }

    ~Client()
    {
        if (fd_ >= 0)
            ::close(fd_);
    }

    bool connected() const { return connected_; }

    /** Bound every later recv() so a server bug fails, not hangs. */
    void
    setRecvTimeoutMs(int ms)
    {
        struct timeval timeout;
        timeout.tv_sec = ms / 1000;
        timeout.tv_usec = (ms % 1000) * 1000;
        ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout,
                     sizeof(timeout));
    }

    bool
    send(std::string_view bytes)
    {
        size_t sent = 0;
        while (sent < bytes.size()) {
            const ssize_t n = ::send(fd_, bytes.data() + sent,
                                     bytes.size() - sent, 0);
            if (n <= 0)
                return false;
            sent += static_cast<size_t>(n);
        }
        return true;
    }

    /** Read one length-prefixed frame payload ("" on EOF/error). */
    std::string
    readFrame()
    {
        std::string header = readExactly(4);
        if (header.size() != 4)
            return "";
        uint32_t length = 0;
        std::memcpy(&length, header.data(), 4);
        return readExactly(length);
    }

    /** Whatever has already arrived, without blocking. */
    std::string
    readNow()
    {
        std::string out;
        char chunk[4096];
        for (;;) {
            const ssize_t n =
                ::recv(fd_, chunk, sizeof(chunk), MSG_DONTWAIT);
            if (n <= 0)
                return out;
            out.append(chunk, static_cast<size_t>(n));
        }
    }

    /** Read until the peer closes (HTTP responses are close-delimited). */
    std::string
    readToEof()
    {
        std::string out;
        char chunk[4096];
        for (;;) {
            const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
            if (n <= 0)
                return out;
            out.append(chunk, static_cast<size_t>(n));
        }
    }

  private:
    std::string
    readExactly(size_t count)
    {
        std::string out;
        while (out.size() < count) {
            char chunk[4096];
            const size_t want =
                std::min(count - out.size(), sizeof(chunk));
            const ssize_t n = ::recv(fd_, chunk, want, 0);
            if (n <= 0)
                return out;
            out.append(chunk, static_cast<size_t>(n));
        }
        return out;
    }

    int fd_ = -1;
    bool connected_ = false;
};

class ServerSocketTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        obs::setEnabled(true);
        ServiceConfig config;
        config.registry.shards = 2;
        config.registry.epochSeconds = 5;
        config.registry.trainJobs = 10;
        auto opened = BoundService::open(config);
        ASSERT_TRUE(opened.ok());
        service_ = std::move(opened).value();
        auto server = BoundServer::start(*service_, ServerOptions{});
        ASSERT_TRUE(server.ok());
        server_ = std::move(server).value();
        ASSERT_GT(server_->port(), 0);
    }

    void
    TearDown() override
    {
        if (server_ != nullptr)
            server_->stop();
        obs::setEnabled(false);
    }

    std::string
    requestPayload(Opcode op, std::string_view body, Client &client)
    {
        EXPECT_TRUE(client.send(frameRequest(op, body)));
        return client.readFrame();
    }

    std::unique_ptr<BoundService> service_;
    std::unique_ptr<BoundServer> server_;
};

TEST_F(ServerSocketTest, PingAnswersTheWireVersion)
{
    Client client(server_->port());
    ASSERT_TRUE(client.connected());
    const std::string payload = requestPayload(Opcode::Ping, "", client);
    ASSERT_EQ(payload.size(), 5u);
    EXPECT_EQ(static_cast<uint8_t>(payload[0]),
              static_cast<uint8_t>(Status::Ok));
    uint32_t version = 0;
    std::memcpy(&version, payload.data() + 1, 4);
    EXPECT_EQ(version, kWireVersion);
}

TEST_F(ServerSocketTest, EventsThenQueryOverOneBinaryConnection)
{
    Client client(server_->port());
    ASSERT_TRUE(client.connected());
    for (uint64_t job = 1; job <= 12; ++job) {
        JobEvent submit;
        submit.kind = EventKind::Submit;
        submit.jobId = job;
        submit.time = 100.0 * static_cast<double>(job);
        submit.machine = "m";
        submit.queue = "q";
        submit.procs = 4;
        std::string payload =
            requestPayload(Opcode::Event, encodeEvent(submit), client);
        ASSERT_FALSE(payload.empty());
        ASSERT_EQ(payload[0], 0) << "submit " << job;
        JobEvent start = submit;
        start.kind = EventKind::Start;
        start.time = submit.time + 30.0 + static_cast<double>(job);
        payload = requestPayload(Opcode::Event, encodeEvent(start), client);
        ASSERT_FALSE(payload.empty());
        ASSERT_EQ(payload[0], 0) << "start " << job;
        persist::StateReader reader(
            std::string_view(payload).substr(1), "event-response");
        EXPECT_EQ(reader.u8(), 1) << "start must apply";
        EXPECT_TRUE(reader.ok());
    }

    BoundQuery query;
    query.machine = "m";
    query.queue = "q";
    query.procs = 4;
    query.quantile = 0.95;
    const std::string payload =
        requestPayload(Opcode::Query, encodeQuery(query), client);
    ASSERT_FALSE(payload.empty());
    ASSERT_EQ(payload[0], 0);
    auto answer = decodeAnswer(std::string_view(payload).substr(1));
    ASSERT_TRUE(answer.ok());
    EXPECT_TRUE(answer.value().known);
    // The snapshot is frozen at the last publish: job 12's submit
    // ticked an epoch over 11 observations; job 12's own wait is not in.
    EXPECT_EQ(answer.value().observations, 11u);
    // The answer must equal the service's own view exactly.
    const BoundAnswer direct = service_->query(query);
    EXPECT_EQ(answer.value().upper, direct.upper);
    EXPECT_EQ(answer.value().lower, direct.lower);
    EXPECT_EQ(answer.value().version, direct.version);

    const std::string stats_payload =
        requestPayload(Opcode::Stats, "", client);
    ASSERT_FALSE(stats_payload.empty());
    ASSERT_EQ(stats_payload[0], 0);
    auto stats = decodeStats(std::string_view(stats_payload).substr(1));
    ASSERT_TRUE(stats.ok());
    uint64_t processed = 0;
    for (uint64_t count : stats.value().processedPerShard)
        processed += count;
    EXPECT_EQ(processed, 24u);
    EXPECT_EQ(stats.value().entries, 1u);
}

TEST_F(ServerSocketTest, DribbledBinaryFrameSurvivesTheSniff)
{
    // One byte at a time across the sniff boundary and the frame
    // header: the server must wait for 4 bytes before deciding.
    Client client(server_->port());
    ASSERT_TRUE(client.connected());
    const std::string framed = frameRequest(Opcode::Ping, "");
    for (char byte : framed) {
        ASSERT_TRUE(client.send(std::string_view(&byte, 1)));
    }
    const std::string payload = client.readFrame();
    ASSERT_EQ(payload.size(), 5u);
    EXPECT_EQ(payload[0], 0);
}

TEST_F(ServerSocketTest, RejectedEventReportsItsReason)
{
    Client client(server_->port());
    ASSERT_TRUE(client.connected());
    JobEvent start;
    start.kind = EventKind::Start;
    start.jobId = 1;
    start.time = 10.0;
    start.machine = "ghost";
    start.queue = "q";
    start.procs = 1;
    const std::string payload =
        requestPayload(Opcode::Event, encodeEvent(start), client);
    ASSERT_FALSE(payload.empty());
    EXPECT_EQ(payload[0], 0) << "a deterministic reject is Status::Ok";
    persist::StateReader reader(std::string_view(payload).substr(1),
                                "event-response");
    EXPECT_EQ(reader.u8(), 0);
    EXPECT_EQ(reader.str(), "start for unknown key");
    EXPECT_TRUE(reader.ok());
}

TEST_F(ServerSocketTest, MalformedBodyAndUnknownOpcodeAnswerErrors)
{
    Client client(server_->port());
    ASSERT_TRUE(client.connected());
    std::string payload =
        requestPayload(Opcode::Query, "\x01garbage", client);
    ASSERT_FALSE(payload.empty());
    EXPECT_EQ(static_cast<uint8_t>(payload[0]),
              static_cast<uint8_t>(Status::Error));

    // The connection survives a malformed *body* (only corrupt frame
    // lengths are fatal)...
    payload = requestPayload(static_cast<Opcode>(0x7F), "", client);
    ASSERT_FALSE(payload.empty());
    EXPECT_EQ(static_cast<uint8_t>(payload[0]),
              static_cast<uint8_t>(Status::Error));

    // ...and still answers real requests afterwards.
    payload = requestPayload(Opcode::Ping, "", client);
    ASSERT_EQ(payload.size(), 5u);
    EXPECT_EQ(payload[0], 0);
}

TEST_F(ServerSocketTest, CorruptFrameLengthTearsTheConnectionDown)
{
    Client client(server_->port());
    ASSERT_TRUE(client.connected());
    const uint32_t huge = kMaxFrameBytes + 1;
    std::string corrupt(4, '\0');
    std::memcpy(corrupt.data(), &huge, 4);
    ASSERT_TRUE(client.send(corrupt));
    const std::string payload = client.readFrame();
    ASSERT_FALSE(payload.empty());
    EXPECT_EQ(static_cast<uint8_t>(payload[0]),
              static_cast<uint8_t>(Status::Error));
    // EOF follows: the server closed its side.
    EXPECT_TRUE(client.readFrame().empty());
}

TEST_F(ServerSocketTest, HttpRoutes)
{
    {
        Client client(server_->port());
        ASSERT_TRUE(client.connected());
        ASSERT_TRUE(client.send("GET /healthz HTTP/1.1\r\n"
                                "Host: localhost\r\n\r\n"));
        const std::string response = client.readToEof();
        EXPECT_EQ(response.rfind("HTTP/1.1 200 OK\r\n", 0), 0u);
        EXPECT_NE(response.find("{\"status\":\"ok\"}"),
                  std::string::npos);
    }
    {
        // Ingest over HTTP, then query the same key.
        Client client(server_->port());
        ASSERT_TRUE(client.send(
            "POST /event?kind=submit&job=1&time=100&machine=h&queue=q"
            "&procs=2 HTTP/1.1\r\n\r\n"));
        EXPECT_NE(client.readToEof().find("\"applied\":true"),
                  std::string::npos);
    }
    {
        Client client(server_->port());
        ASSERT_TRUE(client.send(
            "POST /event?kind=start&job=1&time=150&machine=h&queue=q"
            "&procs=2 HTTP/1.1\r\n\r\n"));
        EXPECT_NE(client.readToEof().find("\"applied\":true"),
                  std::string::npos);
    }
    {
        Client client(server_->port());
        ASSERT_TRUE(client.send(
            "GET /bound?machine=h&queue=q&procs=2&q=0.95 HTTP/1.1\r\n\r\n"));
        const std::string response = client.readToEof();
        EXPECT_NE(response.find("\"known\":true"), std::string::npos);
        // One observation, but no refit yet: the published snapshot is
        // still the entry-creation one.
        EXPECT_NE(response.find("\"observations\":0"), std::string::npos);
    }
    {
        Client client(server_->port());
        ASSERT_TRUE(client.send("GET /stats HTTP/1.1\r\n\r\n"));
        EXPECT_NE(client.readToEof().find("\"entries\":1"),
                  std::string::npos);
    }
    {
        Client client(server_->port());
        ASSERT_TRUE(client.send("GET /metrics HTTP/1.1\r\n\r\n"));
        const std::string response = client.readToEof();
        EXPECT_NE(response.find("qdel_serve_requests_total"),
                  std::string::npos);
        EXPECT_NE(response.find("text/plain; version=0.0.4"),
                  std::string::npos);
    }
    {
        Client client(server_->port());
        ASSERT_TRUE(client.send("GET /no-such HTTP/1.1\r\n\r\n"));
        EXPECT_EQ(client.readToEof().rfind("HTTP/1.1 404", 0), 0u);
    }
    {
        Client client(server_->port());
        ASSERT_TRUE(client.send(
            "POST /event?kind=bogus HTTP/1.1\r\n\r\n"));
        EXPECT_EQ(client.readToEof().rfind("HTTP/1.1 400", 0), 0u);
    }
}

TEST_F(ServerSocketTest, RetriedEventIsDedupedOverTheSocket)
{
    Client client(server_->port());
    ASSERT_TRUE(client.connected());
    JobEvent submit;
    submit.kind = EventKind::Submit;
    submit.jobId = 1;
    submit.time = 10.0;
    submit.machine = "m";
    submit.queue = "q";
    submit.procs = 4;
    submit.clientId = "sock-test";
    submit.seq = 1;

    std::string payload =
        requestPayload(Opcode::Event, encodeEvent(submit), client);
    ASSERT_FALSE(payload.empty());
    ASSERT_EQ(payload[0], 0);
    {
        persist::StateReader reader(std::string_view(payload).substr(1),
                                    "event-response");
        EXPECT_EQ(reader.u8(), 1);   // applied
        EXPECT_EQ(reader.str(), ""); // no reject reason
        EXPECT_EQ(reader.u8(), 0);   // not a dedup
        EXPECT_TRUE(reader.expectEnd().ok());
    }

    // The retry (same clientId + seq, e.g. after a lost response) is
    // acknowledged but not re-applied.
    payload = requestPayload(Opcode::Event, encodeEvent(submit), client);
    ASSERT_FALSE(payload.empty());
    ASSERT_EQ(payload[0], 0);
    {
        persist::StateReader reader(std::string_view(payload).substr(1),
                                    "event-response");
        EXPECT_EQ(reader.u8(), 0);   // not applied...
        EXPECT_EQ(reader.str(), "");
        EXPECT_EQ(reader.u8(), 1);   // ...because deduped
        EXPECT_TRUE(reader.expectEnd().ok());
    }
    uint64_t processed = 0;
    for (uint64_t count : service_->stats().processedPerShard)
        processed += count;
    EXPECT_EQ(processed, 1u) << "the retry must not count as processed";
}

TEST_F(ServerSocketTest, HttpRetryWithClientSeqIsDeduped)
{
    const char *request =
        "POST /event?kind=submit&job=9&time=5&machine=h&queue=q&procs=2"
        "&client=web&seq=1 HTTP/1.1\r\n\r\n";
    {
        Client client(server_->port());
        ASSERT_TRUE(client.send(request));
        EXPECT_NE(client.readToEof().find("\"applied\":true"),
                  std::string::npos);
    }
    {
        Client client(server_->port());
        ASSERT_TRUE(client.send(request));
        const std::string response = client.readToEof();
        EXPECT_NE(response.find("\"applied\":false"), std::string::npos);
        EXPECT_NE(response.find("\"deduped\":true"), std::string::npos);
    }
}

TEST_F(ServerSocketTest, DebugEndpointsServeWellFormedJson)
{
    // Put one finalized entry into the registry so the calibration
    // report has a row to render.
    Client ingest(server_->port());
    ASSERT_TRUE(ingest.connected());
    for (uint64_t job = 1; job <= 12; ++job) {
        JobEvent submit;
        submit.kind = EventKind::Submit;
        submit.jobId = job;
        submit.time = 10.0 * static_cast<double>(job);
        submit.machine = "m";
        submit.queue = "q";
        submit.procs = 4;
        ASSERT_EQ(requestPayload(Opcode::Event, encodeEvent(submit),
                                 ingest)[0],
                  0);
        JobEvent start = submit;
        start.kind = EventKind::Start;
        start.time = submit.time + 5.0;
        ASSERT_EQ(requestPayload(Opcode::Event, encodeEvent(start),
                                 ingest)[0],
                  0);
    }

    {
        Client client(server_->port());
        ASSERT_TRUE(client.send(
            "GET /debug/calibration HTTP/1.1\r\n\r\n"));
        const std::string response = client.readToEof();
        EXPECT_EQ(response.rfind("HTTP/1.1 200 OK\r\n", 0), 0u);
        EXPECT_NE(response.find("application/json"), std::string::npos);
        EXPECT_NE(response.find("\"confidence\":"), std::string::npos);
        EXPECT_NE(response.find("\"rows\":["), std::string::npos);
        EXPECT_NE(response.find("\"machine\":\"m\""), std::string::npos);
        EXPECT_NE(response.find("\"failing\":"), std::string::npos);
        // JSON body, balanced braces end-to-end.
        const size_t body = response.find("\r\n\r\n") + 4;
        int depth = 0;
        for (size_t i = body; i < response.size(); ++i) {
            if (response[i] == '{')
                ++depth;
            if (response[i] == '}')
                --depth;
        }
        EXPECT_EQ(depth, 0);
    }
    {
        Client client(server_->port());
        ASSERT_TRUE(client.send("GET /debug/shards HTTP/1.1\r\n\r\n"));
        const std::string response = client.readToEof();
        EXPECT_EQ(response.rfind("HTTP/1.1 200 OK\r\n", 0), 0u);
        EXPECT_NE(response.find("\"durable\":false"), std::string::npos);
        EXPECT_NE(response.find("\"shards\":["), std::string::npos);
        EXPECT_NE(response.find("\"applied\":"), std::string::npos);
        EXPECT_NE(response.find("\"walSinceCheckpoint\":"),
                  std::string::npos);
    }
    {
        Client client(server_->port());
        ASSERT_TRUE(client.send("GET /debug/conns HTTP/1.1\r\n\r\n"));
        const std::string response = client.readToEof();
        EXPECT_EQ(response.rfind("HTTP/1.1 200 OK\r\n", 0), 0u);
        EXPECT_NE(response.find("\"loops\":["), std::string::npos);
        EXPECT_NE(response.find("\"connCount\":"), std::string::npos);
        // The requesting connection itself must be visible somewhere.
        EXPECT_NE(response.find("\"proto\":"), std::string::npos);
    }
}

TEST_F(ServerSocketTest, TraceIdsPropagateIntoTheEventStream)
{
    obs::events().clear();
    constexpr uint64_t kBinaryTrace = 0x1122334455667788ULL;

    // Binary path: the v3 optional tail on an Event frame.
    Client client(server_->port());
    ASSERT_TRUE(client.connected());
    JobEvent submit;
    submit.kind = EventKind::Submit;
    submit.jobId = 1;
    submit.time = 10.0;
    submit.machine = "t";
    submit.queue = "q";
    submit.procs = 4;
    submit.traceId = kBinaryTrace;
    const std::string payload =
        requestPayload(Opcode::Event, encodeEventWire(submit), client);
    ASSERT_FALSE(payload.empty());
    ASSERT_EQ(payload[0], 0);

    // HTTP path: X-Qdel-Trace header on a bound query.
    Client http(server_->port());
    ASSERT_TRUE(http.send(
        "GET /bound?machine=t&queue=q&procs=4&q=0.95 HTTP/1.1\r\n"
        "X-Qdel-Trace: 00000000deadbeef\r\n\r\n"));
    EXPECT_NE(http.readToEof().find("\"known\":true"), std::string::npos);

    // The reactor emits its spans as the handler scopes unwind, which
    // may race the response flush by a few microseconds — poll.
    bool saw_ingest = false, saw_frame_span = false, saw_http = false;
    for (int attempt = 0; attempt < 200; ++attempt) {
        saw_ingest = saw_frame_span = saw_http = false;
        for (const auto &event : obs::events().drain()) {
            if (event.trace == kBinaryTrace) {
                if (std::string(event.label) == "service_ingest")
                    saw_ingest = true;
                if (std::string(event.label) == "serve_request")
                    saw_frame_span = true;
            }
            if (event.trace == 0x00000000deadbeefULL &&
                std::string(event.label) == "serve_http")
                saw_http = true;
        }
        if (saw_ingest && saw_frame_span && saw_http)
            break;
        usleep(10'000);
    }
    EXPECT_TRUE(saw_ingest) << "traced ingest instant missing";
    EXPECT_TRUE(saw_frame_span) << "traced frame span missing";
    EXPECT_TRUE(saw_http) << "traced http span missing";

    // An untraced request must not invent a trace id: every event with
    // a nonzero trace matches one of the two ids above.
    for (const auto &event : obs::events().drain())
        if (event.trace != 0)
            EXPECT_TRUE(event.trace == kBinaryTrace ||
                        event.trace == 0x00000000deadbeefULL)
                << "unexpected trace on " << event.label;
}

TEST_F(ServerSocketTest, WireV2ClientRoundTripsUnchanged)
{
    // A v2 client encodes events and queries without the trace tail —
    // exactly what encodeEvent()/encodeQuery(traceId=0) produce. The
    // v3 server must answer byte-compatible responses.
    Client client(server_->port());
    ASSERT_TRUE(client.connected());

    JobEvent submit;
    submit.kind = EventKind::Submit;
    submit.jobId = 7;
    submit.time = 100.0;
    submit.machine = "v2";
    submit.queue = "q";
    submit.procs = 2;
    const std::string v2_event = encodeEvent(submit);  // no tail, ever
    std::string payload =
        requestPayload(Opcode::Event, v2_event, client);
    ASSERT_FALSE(payload.empty());
    EXPECT_EQ(payload[0], 0);
    {
        persist::StateReader reader(std::string_view(payload).substr(1),
                                    "event-response");
        EXPECT_EQ(reader.u8(), 1);   // applied
        EXPECT_EQ(reader.str(), ""); // no reject reason
        EXPECT_EQ(reader.u8(), 0);   // not deduped
        EXPECT_TRUE(reader.expectEnd().ok()) << "v2 response grew";
    }

    BoundQuery query;
    query.machine = "v2";
    query.queue = "q";
    query.procs = 2;
    query.quantile = 0.95;
    ASSERT_EQ(query.traceId, 0u);
    payload = requestPayload(Opcode::Query, encodeQuery(query), client);
    ASSERT_FALSE(payload.empty());
    EXPECT_EQ(payload[0], 0);
    auto answer = decodeAnswer(std::string_view(payload).substr(1));
    ASSERT_TRUE(answer.ok());
    EXPECT_TRUE(answer.value().known);
}

/** Overload and deadline behaviour needs custom ServerOptions, so
 *  these tests build their own server instead of using the fixture. */
class OverloadTest : public ::testing::Test
{
  protected:
    void
    startServer(const ServerOptions &options, uint64_t maxPending = 0,
                uint32_t retryAfter = 1)
    {
        obs::setEnabled(true);
        ServiceConfig config;
        config.registry.shards = 2;
        config.registry.epochSeconds = 5;
        config.registry.trainJobs = 10;
        config.maxPendingPerShard = maxPending;
        config.shedRetryAfterSeconds = retryAfter;
        auto opened = BoundService::open(config);
        ASSERT_TRUE(opened.ok());
        service_ = std::move(opened).value();
        auto server = BoundServer::start(*service_, options);
        ASSERT_TRUE(server.ok());
        server_ = std::move(server).value();
    }

    void
    TearDown() override
    {
        if (server_ != nullptr)
            server_->stop();
        obs::setEnabled(false);
    }

    std::unique_ptr<BoundService> service_;
    std::unique_ptr<BoundServer> server_;
};

TEST_F(OverloadTest, ExcessBinaryConnectionGetsAShedFrame)
{
    ServerOptions options;
    options.maxConnections = 1;
    startServer(options);

    Client holder(server_->port());
    ASSERT_TRUE(holder.connected());
    // A round trip guarantees the holder occupies the one slot.
    ASSERT_TRUE(holder.send(frameRequest(Opcode::Ping, "")));
    ASSERT_EQ(holder.readFrame().size(), 5u);

    Client excess(server_->port());
    ASSERT_TRUE(excess.connected());
    ASSERT_TRUE(excess.send(frameRequest(Opcode::Ping, "")));
    const std::string payload = excess.readFrame();
    ASSERT_FALSE(payload.empty());
    ASSERT_EQ(static_cast<uint8_t>(payload[0]),
              static_cast<uint8_t>(Status::Shed));
    persist::StateReader reader(std::string_view(payload).substr(1),
                                "shed-response");
    EXPECT_FALSE(reader.str().empty());  // reason
    EXPECT_GE(reader.u32(), 1u);         // retry-after seconds
    EXPECT_TRUE(reader.expectEnd().ok());
    // The shed connection is closed; the held one still works.
    EXPECT_TRUE(excess.readFrame().empty());
    ASSERT_TRUE(holder.send(frameRequest(Opcode::Ping, "")));
    EXPECT_EQ(holder.readFrame().size(), 5u);
}

TEST_F(OverloadTest, ExcessHttpConnectionGets503WithRetryAfter)
{
    ServerOptions options;
    options.maxConnections = 1;
    startServer(options);

    Client holder(server_->port());
    ASSERT_TRUE(holder.connected());
    ASSERT_TRUE(holder.send(frameRequest(Opcode::Ping, "")));
    ASSERT_EQ(holder.readFrame().size(), 5u);

    Client excess(server_->port());
    ASSERT_TRUE(excess.connected());
    ASSERT_TRUE(excess.send("GET /healthz HTTP/1.1\r\n\r\n"));
    const std::string response = excess.readToEof();
    EXPECT_EQ(response.rfind("HTTP/1.1 503", 0), 0u) << response;
    EXPECT_NE(response.find("Retry-After:"), std::string::npos);
}

TEST_F(OverloadTest, IdleAndStalledConnectionsAreReaped)
{
    ServerOptions options;
    options.ioTimeoutMs = 100;
    options.idleTimeoutMs = 150;
    startServer(options);

    {
        // Fully idle: never sends a byte; reaped at the idle deadline.
        Client idle(server_->port());
        ASSERT_TRUE(idle.connected());
        EXPECT_TRUE(idle.readFrame().empty()) << "expected reap EOF";
    }
    {
        // Slow-loris: half a frame header, then silence; reaped at the
        // io deadline.
        Client loris(server_->port());
        ASSERT_TRUE(loris.connected());
        ASSERT_TRUE(loris.send(std::string_view("\x09\x00", 2)));
        EXPECT_TRUE(loris.readFrame().empty()) << "expected reap EOF";
    }
    // The server is healthy afterwards.
    Client fresh(server_->port());
    ASSERT_TRUE(fresh.connected());
    ASSERT_TRUE(fresh.send(frameRequest(Opcode::Ping, "")));
    EXPECT_EQ(fresh.readFrame().size(), 5u);
}

TEST_F(OverloadTest, PendingBoundShedsSubmitsUntilStartsDrain)
{
    startServer(ServerOptions{}, /*maxPending=*/1, /*retryAfter=*/7);

    Client client(server_->port());
    ASSERT_TRUE(client.connected());
    JobEvent submit;
    submit.kind = EventKind::Submit;
    submit.jobId = 1;
    submit.time = 10.0;
    submit.machine = "m";
    submit.queue = "q";
    submit.procs = 4;

    std::string payload;
    {
        EXPECT_TRUE(client.send(frameRequest(Opcode::Event,
                                             encodeEvent(submit))));
        payload = client.readFrame();
        ASSERT_FALSE(payload.empty());
        EXPECT_EQ(payload[0], 0);
    }
    {
        // Second submit for the same shard: over the pending bound.
        JobEvent second = submit;
        second.jobId = 2;
        second.time = 11.0;
        EXPECT_TRUE(client.send(frameRequest(Opcode::Event,
                                             encodeEvent(second))));
        payload = client.readFrame();
        ASSERT_FALSE(payload.empty());
        ASSERT_EQ(static_cast<uint8_t>(payload[0]),
                  static_cast<uint8_t>(Status::Shed));
        persist::StateReader reader(std::string_view(payload).substr(1),
                                    "shed-response");
        EXPECT_FALSE(reader.str().empty());
        EXPECT_EQ(reader.u32(), 7u) << "configured Retry-After";
        EXPECT_TRUE(reader.expectEnd().ok());
        // Shedding an event does NOT tear down the connection.
    }
    {
        // Draining the pending job re-opens admission.
        JobEvent start = submit;
        start.kind = EventKind::Start;
        start.time = 40.0;
        EXPECT_TRUE(client.send(frameRequest(Opcode::Event,
                                             encodeEvent(start))));
        payload = client.readFrame();
        ASSERT_FALSE(payload.empty());
        EXPECT_EQ(payload[0], 0);
        JobEvent second = submit;
        second.jobId = 2;
        second.time = 41.0;
        EXPECT_TRUE(client.send(frameRequest(Opcode::Event,
                                             encodeEvent(second))));
        payload = client.readFrame();
        ASSERT_FALSE(payload.empty());
        EXPECT_EQ(payload[0], 0) << "submit after drain must be admitted";
        persist::StateReader reader(std::string_view(payload).substr(1),
                                    "event-response");
        EXPECT_EQ(reader.u8(), 1);
        EXPECT_TRUE(reader.ok());
    }
    // Shed events were never logged or applied: only the three
    // processed events count.
    uint64_t processed = 0;
    for (uint64_t count : service_->stats().processedPerShard)
        processed += count;
    EXPECT_EQ(processed, 3u);
}

TEST_F(ServerSocketTest, StopIsIdempotentAndClosesClients)
{
    Client client(server_->port());
    ASSERT_TRUE(client.connected());
    server_->stop();
    server_->stop();  // idempotent
    // The open (idle, pre-sniff) connection is shut down.
    EXPECT_TRUE(client.readFrame().empty());
    // New connections are refused.
    Client late(server_->port());
    std::string payload;
    if (late.connected()) {
        // A race can accept just before close; it must still EOF.
        late.send(frameRequest(Opcode::Ping, ""));
        payload = late.readFrame();
    }
    EXPECT_TRUE(payload.empty());
}

TEST_F(ServerSocketTest, MalformedHttpParametersAnswer400AndApplyNothing)
{
    // Garbage, trailing junk, and non-finite values on every typed
    // parameter of both routes: each is a 400 naming the parameter,
    // never an event at time 0 or a query for procs 0.
    const struct
    {
        const char *target;
        const char *param;
    } cases[] = {
        {"GET /bound?machine=m&queue=q&procs=abc", "procs"},
        {"GET /bound?machine=m&queue=q&procs=4x", "procs"},
        {"GET /bound?machine=m&queue=q&procs=99999999999", "procs"},
        {"GET /bound?machine=m&queue=q&q=0.9junk", "q"},
        {"GET /bound?machine=m&queue=q&q=nan", "q"},
        {"GET /bound?machine=m&queue=q&q=inf", "q"},
        {"POST /event?kind=submit&job=abc&time=1&machine=m", "job"},
        {"POST /event?kind=submit&job=1x&time=1&machine=m", "job"},
        {"POST /event?kind=submit&job=-1&time=1&machine=m", "job"},
        {"POST /event?kind=submit&job=1&time=abc&machine=m", "time"},
        {"POST /event?kind=submit&job=1&time=5s&machine=m", "time"},
        {"POST /event?kind=submit&job=1&time=nan&machine=m", "time"},
        {"POST /event?kind=submit&job=1&time=1&machine=m&procs=x", "procs"},
        {"POST /event?kind=submit&job=1&time=1&machine=m&procs=2.5",
         "procs"},
        {"POST /event?kind=submit&job=1&time=1&machine=m&client=c&seq=z",
         "seq"},
        {"POST /event?kind=submit&job=1&time=1&machine=m&client=c&seq=7!",
         "seq"},
    };
    for (const auto &c : cases) {
        SCOPED_TRACE(c.target);
        Client client(server_->port());
        ASSERT_TRUE(client.connected());
        ASSERT_TRUE(client.send(std::string(c.target) +
                                " HTTP/1.1\r\n\r\n"));
        const std::string response = client.readToEof();
        EXPECT_EQ(response.rfind("HTTP/1.1 400", 0), 0u) << response;
        EXPECT_NE(response.find(std::string("'") + c.param + "'"),
                  std::string::npos)
            << response;
    }

    // Nothing was applied (or even created) by any of them.
    Client stats(server_->port());
    ASSERT_TRUE(stats.send("GET /stats HTTP/1.1\r\n\r\n"));
    const std::string response = stats.readToEof();
    EXPECT_NE(response.find("{\"entries\":0,\"shards\":[0,0]}"),
              std::string::npos)
        << response;

    // Absent parameters keep their defaults: still a 200.
    Client bound(server_->port());
    ASSERT_TRUE(bound.send("GET /bound?machine=m HTTP/1.1\r\n\r\n"));
    EXPECT_EQ(bound.readToEof().rfind("HTTP/1.1 200", 0), 0u);
}

/** Connect and complete one ping, so the connection holds its slot. */
void
holdSlot(Client &holder)
{
    ASSERT_TRUE(holder.connected());
    holder.setRecvTimeoutMs(5000);
    ASSERT_TRUE(holder.send(frameRequest(Opcode::Ping, "")));
    ASSERT_EQ(holder.readFrame().size(), 5u);
}

/** Block until qdel_serve_shed_total exceeds @p before (or 2s pass). */
bool
awaitShed(uint64_t before)
{
    for (int i = 0; i < 2000; ++i) {
        if (obs::serveMetrics().shedTotal.value() > before)
            return true;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return false;
}

TEST_F(OverloadTest, SilentShedClientGetsTheBinaryFrameAfterTheGrace)
{
    ServerOptions options;
    options.maxConnections = 1;
    options.reactorThreads = 1;
    startServer(options);
    Client holder(server_->port());
    holdSlot(holder);

    const auto connected = std::chrono::steady_clock::now();
    Client excess(server_->port());
    ASSERT_TRUE(excess.connected());
    excess.setRecvTimeoutMs(5000);
    // Sends nothing: the sniff cannot decide, so the grace deadline
    // answers with the binary refusal.
    const std::string payload = excess.readFrame();
    const auto waited = std::chrono::steady_clock::now() - connected;
    ASSERT_FALSE(payload.empty());
    ASSERT_EQ(static_cast<uint8_t>(payload[0]),
              static_cast<uint8_t>(Status::Shed));
    EXPECT_GE(waited, std::chrono::milliseconds(95))
        << "refused before the grace window elapsed";
    persist::StateReader reader(std::string_view(payload).substr(1),
                                "shed-response");
    EXPECT_EQ(reader.str(), "connection slots exhausted");
    EXPECT_EQ(reader.u32(), 1u);
    EXPECT_TRUE(reader.expectEnd().ok());
    EXPECT_TRUE(excess.readFrame().empty()) << "expected EOF";
}

TEST_F(OverloadTest, DribbledHttpShedClientStillGets503)
{
    ServerOptions options;
    options.maxConnections = 1;
    options.reactorThreads = 1;
    startServer(options);
    Client holder(server_->port());
    holdSlot(holder);

    Client excess(server_->port());
    ASSERT_TRUE(excess.connected());
    excess.setRecvTimeoutMs(5000);
    // The sniff must wait for all 4 bytes, however they trickle in.
    for (char byte : std::string("GET ")) {
        ASSERT_TRUE(excess.send(std::string_view(&byte, 1)));
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    const std::string response = excess.readToEof();
    EXPECT_EQ(response.rfind("HTTP/1.1 503", 0), 0u) << response;
    EXPECT_NE(response.find("Retry-After: 1\r\n"), std::string::npos)
        << response;
    EXPECT_NE(response.find("Connection: close\r\n"), std::string::npos);
}

TEST_F(OverloadTest, ShedGraceWindowNeverBlocksTheLoop)
{
    ServerOptions options;
    options.maxConnections = 1;
    options.reactorThreads = 1;
    startServer(options);
    Client holder(server_->port());
    holdSlot(holder);

    const uint64_t shed_before = obs::serveMetrics().shedTotal.value();
    Client excess(server_->port());
    ASSERT_TRUE(excess.connected());
    excess.setRecvTimeoutMs(5000);
    ASSERT_TRUE(awaitShed(shed_before));

    // The one loop owns both connections; the silent shed client sits
    // in its 100ms grace window while the holder round-trips.
    const auto sent = std::chrono::steady_clock::now();
    ASSERT_TRUE(holder.send(frameRequest(Opcode::Ping, "")));
    ASSERT_EQ(holder.readFrame().size(), 5u);
    EXPECT_LT(std::chrono::steady_clock::now() - sent,
              std::chrono::milliseconds(50));

    // The shed client was still waiting: it gets its refusal only now.
    const std::string payload = excess.readFrame();
    ASSERT_FALSE(payload.empty());
    EXPECT_EQ(static_cast<uint8_t>(payload[0]),
              static_cast<uint8_t>(Status::Shed));
}

/**
 * Exhausts this process's descriptor table: RLIMIT_NOFILE drops to just
 * above the highest open fd and the gap fills with dup()s. Everything
 * is undone on release() or destruction, so a failed assertion cannot
 * leak a crippled process into later tests.
 */
class FdSqueeze
{
  public:
    FdSqueeze()
    {
        base_ = ::open("/dev/null", O_RDONLY);
        if (base_ < 0 || ::getrlimit(RLIMIT_NOFILE, &saved_) != 0)
            return;
        int highest = base_;
        if (DIR *dir = ::opendir("/proc/self/fd")) {
            while (const struct dirent *entry = ::readdir(dir))
                highest = std::max(highest, std::atoi(entry->d_name));
            ::closedir(dir);
        }
        struct rlimit tight = saved_;
        tight.rlim_cur = static_cast<rlim_t>(highest + 16);
        if (::setrlimit(RLIMIT_NOFILE, &tight) != 0)
            return;
        squeezed_ = true;
        for (int fd; (fd = ::dup(base_)) >= 0;)
            filler_.push_back(fd);
        full_ = errno == EMFILE;
    }

    ~FdSqueeze() { release(); }

    /** True when the table is full (every dup() hit EMFILE). */
    bool full() const { return squeezed_ && full_ && !filler_.empty(); }

    /** Free exactly one descriptor slot. */
    void
    freeOne()
    {
        ::close(filler_.back());
        filler_.pop_back();
    }

    void
    release()
    {
        for (int fd : filler_)
            ::close(fd);
        filler_.clear();
        if (squeezed_)
            ::setrlimit(RLIMIT_NOFILE, &saved_);
        squeezed_ = false;
        if (base_ >= 0)
            ::close(base_);
        base_ = -1;
    }

  private:
    int base_ = -1;
    struct rlimit saved_;
    bool squeezed_ = false;
    bool full_ = false;
    std::vector<int> filler_;
};

TEST_F(OverloadTest, AcceptEmfileBacksOffWithoutSpinningAndRecovers)
{
    ServerOptions options;
    options.reactorThreads = 1;
    startServer(options);
    Client holder(server_->port());
    holdSlot(holder);
    const uint64_t errors_before = obs::serveMetrics().acceptErrors.value();

    // One free slot for the client socket: the connection completes
    // into the backlog, but the server's accept() has no descriptor
    // left and fails with EMFILE.
    FdSqueeze squeeze;
    ASSERT_TRUE(squeeze.full());
    squeeze.freeOne();
    Client waiting(server_->port());
    ASSERT_TRUE(waiting.connected());
    bool saw_error = false;
    for (int i = 0; i < 2000 && !saw_error; ++i) {
        saw_error =
            obs::serveMetrics().acceptErrors.value() > errors_before;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_TRUE(saw_error) << "accept() never reported EMFILE";

    // While EMFILE persists the listener sits out of the epoll set
    // between capped-backoff retries, so the loop sleeps, not spins.
    const uint64_t wakeups_before =
        obs::serveMetrics().loopWakeups.value();
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    EXPECT_LT(obs::serveMetrics().loopWakeups.value() - wakeups_before,
              100u)
        << "the loop spun on the failing listener";
    // The held connection is served throughout.
    ASSERT_TRUE(holder.send(frameRequest(Opcode::Ping, "")));
    EXPECT_EQ(holder.readFrame().size(), 5u);

    // Descriptors are back: the backlogged client is accepted and
    // served within one backoff period.
    squeeze.release();
    waiting.setRecvTimeoutMs(5000);
    ASSERT_TRUE(waiting.send(frameRequest(Opcode::Ping, "")));
    EXPECT_EQ(waiting.readFrame().size(), 5u);
}

/** Threads in this process, from /proc/self/task. */
size_t
threadCount()
{
    size_t count = 0;
    DIR *dir = ::opendir("/proc/self/task");
    if (dir == nullptr)
        return 0;
    while (const struct dirent *entry = ::readdir(dir)) {
        if (entry->d_name[0] != '.')
            ++count;
    }
    ::closedir(dir);
    return count;
}

TEST_F(OverloadTest, ServerRunsExactlyReactorThreadsThreads)
{
    // No accept thread and no shed thread: the loops are the server.
    ServiceConfig config;
    config.registry.shards = 2;
    auto opened = BoundService::open(config);
    ASSERT_TRUE(opened.ok());
    service_ = std::move(opened).value();
    ServerOptions options;
    options.reactorThreads = 2;
    const size_t before = threadCount();
    ASSERT_GT(before, 0u);
    auto server = BoundServer::start(*service_, options);
    ASSERT_TRUE(server.ok());
    server_ = std::move(server).value();
    EXPECT_EQ(threadCount() - before, 2u);
    server_->stop();
    EXPECT_EQ(threadCount(), before);
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

/**
 * A durable server on one reactor loop that syncs every record — the
 * group commit at its strictest: each drained batch's events may share
 * one fsync per shard, and no event reply may leave before it.
 */
class GroupCommitTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        fault::reset();
        obs::setEnabled(true);
        // One directory per test: ctest runs them in parallel.
        const auto *test =
            ::testing::UnitTest::GetInstance()->current_test_info();
        dir_ = ::testing::TempDir() + "qdel_group_commit_" + test->name();
        std::filesystem::remove_all(dir_);
        auto opened = BoundService::open(config());
        ASSERT_TRUE(opened.ok());
        service_ = std::move(opened).value();
        // One queue name per shard, so a window can touch both.
        for (int q = 0; queues_[0].empty() || queues_[1].empty(); ++q) {
            JobEvent probe;
            probe.machine = "gc";
            probe.queue = "q" + std::to_string(q);
            probe.procs = 4;
            std::string &slot =
                queues_[service_->registry().shardForEvent(probe)];
            if (slot.empty())
                slot = probe.queue;
        }
        threadsBefore_ = threadCount();
        ServerOptions options;
        options.reactorThreads = 1;
        auto server = BoundServer::start(*service_, options);
        ASSERT_TRUE(server.ok());
        server_ = std::move(server).value();
    }

    void
    TearDown() override
    {
        if (server_ != nullptr)
            server_->stop();
        fault::reset();
        obs::setEnabled(false);
    }

    ServiceConfig
    config() const
    {
        ServiceConfig config;
        config.registry.shards = 2;
        config.registry.epochSeconds = 5;
        config.registry.trainJobs = 10;
        config.stateDir = dir_;
        config.syncEveryRecords = 1;
        return config;
    }

    /** @p count events: Submit/Start pairs whose keys alternate
     *  between the two shards, client-sequenced for retries. */
    std::vector<JobEvent>
    window(uint64_t firstJob, size_t count) const
    {
        std::vector<JobEvent> events;
        for (uint64_t job = firstJob; events.size() < count; ++job) {
            JobEvent submit;
            submit.kind = EventKind::Submit;
            submit.jobId = job;
            submit.time = 100.0 * static_cast<double>(job);
            submit.machine = "gc";
            submit.queue = queues_[job % 2];
            submit.procs = 4;
            submit.clientId = "gc";
            JobEvent start = submit;
            start.kind = EventKind::Start;
            start.time = submit.time + 20.0 + static_cast<double>(job);
            for (JobEvent *event : {&submit, &start}) {
                if (events.size() == count)
                    break;
                event->seq = 2 * job + (event == &start ? 1 : 0);
                events.push_back(*event);
            }
        }
        return events;
    }

    static std::string
    frames(const std::vector<JobEvent> &events, size_t from, size_t to)
    {
        std::string out;
        for (size_t i = from; i < to; ++i)
            out += frameRequest(Opcode::Event, encodeEvent(events[i]));
        return out;
    }

    size_t
    shardOf(const JobEvent &event) const
    {
        return service_->registry().shardForEvent(event);
    }

    std::string dir_;
    std::string queues_[2];
    size_t threadsBefore_ = 0;
    std::unique_ptr<BoundService> service_;
    std::unique_ptr<BoundServer> server_;
};

TEST_F(GroupCommitTest, PipelinedWindowSharesOneFsyncPerDirtyShard)
{
    // Group commit adds no thread: the one loop is the server.
    EXPECT_EQ(threadCount() - threadsBefore_, 1u);
    Client client(server_->port());
    ASSERT_TRUE(client.connected());
    client.setRecvTimeoutMs(5000);
    const auto events = window(1, 16);
    const uint64_t fsyncs_before =
        histogramNow("qdel_persist_fsync_seconds").first;
    const uint64_t batches_before =
        histogramNow("qdel_serve_batch_frames").first;
    ASSERT_TRUE(client.send(frames(events, 0, events.size())));
    for (size_t i = 0; i < events.size(); ++i) {
        const std::string payload = client.readFrame();
        ASSERT_FALSE(payload.empty()) << "reply " << i;
        EXPECT_EQ(payload[0], 0) << "reply " << i;
    }
    const uint64_t fsyncs =
        histogramNow("qdel_persist_fsync_seconds").first - fsyncs_before;
    const uint64_t batches =
        histogramNow("qdel_serve_batch_frames").first - batches_before;
    EXPECT_GE(fsyncs, 2u) << "each touched shard is synced";
    EXPECT_LT(fsyncs, events.size());
    EXPECT_LE(fsyncs, batches * 2) << "at most one fsync per dirty shard "
                                      "per drained batch";

    // The daemon's state equals an in-process service fed the same
    // per-shard order.
    server_->stop();
    ServiceConfig ephemeral = config();
    ephemeral.stateDir.clear();
    auto reference = BoundService::open(ephemeral);
    ASSERT_TRUE(reference.ok());
    for (const auto &event : events)
        ASSERT_TRUE(reference.value()->ingest(event).ok());
    EXPECT_EQ(service_->digest(), reference.value()->digest());
}

TEST_F(GroupCommitTest, FailedCommitClosesTheBatchWithoutAnAck)
{
    Client client(server_->port());
    ASSERT_TRUE(client.connected());
    client.setRecvTimeoutMs(5000);
    const auto events = window(1, 24);
    uint64_t acked[2] = {0, 0};
    ASSERT_TRUE(client.send(frames(events, 0, 8)));
    for (size_t i = 0; i < 8; ++i) {
        const std::string payload = client.readFrame();
        ASSERT_FALSE(payload.empty());
        ASSERT_EQ(payload[0], 0);
        ++acked[shardOf(events[i])];
    }

    // The next fsync — the second window's group commit — fails: the
    // connection closes with none of the window's replies sent.
    fault::configure({fault::Kind::FailFsync, 0, 1});
    ASSERT_TRUE(client.send(frames(events, 8, events.size())));
    EXPECT_EQ(client.readFrame(), "") << "no ack may precede its fsync";
    EXPECT_EQ(service_->failedShards(), 1u);
    {
        Client http(server_->port());
        ASSERT_TRUE(http.send("GET /healthz HTTP/1.1\r\n\r\n"));
        EXPECT_NE(http.readToEof().find(" 503 "), std::string::npos);
    }
    {
        Client http(server_->port());
        ASSERT_TRUE(http.send("GET /debug/shards HTTP/1.1\r\n\r\n"));
        EXPECT_NE(http.readToEof().find("\"failed\":true"),
                  std::string::npos);
    }

    // Commits run in staging order, so the window's first event names
    // the failed shard. Its retry is an error, never a dedup ack.
    Client retry(server_->port());
    ASSERT_TRUE(retry.connected());
    retry.setRecvTimeoutMs(5000);
    ASSERT_TRUE(retry.send(frameRequest(Opcode::Event,
                                        encodeEvent(events[8]))));
    const std::string payload = retry.readFrame();
    ASSERT_FALSE(payload.empty());
    EXPECT_EQ(static_cast<uint8_t>(payload[0]),
              static_cast<uint8_t>(Status::Error));

    // Reopening the state directory recovers every acked event.
    server_->stop();
    service_.reset();
    auto reopened = BoundService::open(config());
    ASSERT_TRUE(reopened.ok());
    const auto processed = reopened.value()->stats().processedPerShard;
    for (size_t s = 0; s < 2; ++s)
        EXPECT_GE(processed[s], acked[s]) << "shard " << s;
}

TEST_F(GroupCommitTest, QueryOnlyConnectionDoesNotWaitOnTheCommit)
{
    Client stats(server_->port());
    Client writer(server_->port());
    Client reader(server_->port());
    for (Client *client : {&stats, &writer, &reader}) {
        ASSERT_TRUE(client->connected());
        client->setRecvTimeoutMs(5000);
        // One round trip each, so all three are adopted by the loop.
        ASSERT_TRUE(client->send(frameRequest(Opcode::Ping, "")));
        ASSERT_EQ(client->readFrame().size(), 5u);
    }
    BoundQuery query;
    query.machine = "gc";
    query.queue = queues_[0];
    query.procs = 4;
    query.quantile = 0.95;
    {
        // Stand in for a slow writer: hold shard 0's writer lock, so
        // the loop blocks inside a Stats request while an event and a
        // query queue up behind it and reach the loop in one wake.
        auto lock =
            const_cast<BoundRegistry &>(service_->registry()).lockShard(0);
        ASSERT_TRUE(stats.send(frameRequest(Opcode::Stats, "")));
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        const auto events = window(1, 1);
        ASSERT_TRUE(writer.send(frames(events, 0, 1)));
        ASSERT_TRUE(
            reader.send(frameRequest(Opcode::Query, encodeQuery(query))));
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        // That wake's commit will fail and close the writer.
        fault::configure({fault::Kind::FailFsync, 0, 1});
    }
    EXPECT_FALSE(stats.readFrame().empty());
    EXPECT_EQ(writer.readFrame(), "");
    // The writer was closed by the commit; the query's answer was sent
    // before the commit ran, so it has already arrived.
    const std::string answer = reader.readNow();
    ASSERT_GE(answer.size(), 5u);
    EXPECT_EQ(answer[4], 0) << "Status::Ok";
}

} // namespace
} // namespace serve
} // namespace qdel
