/**
 * @file
 * Reactor stress tests: a multi-loop BoundServer under 64 concurrent
 * pipelined clients speaking a mix of binary framing and HTTP
 * keep-alive, asserting (a) every client's answers come back in its
 * own send order and (b) each event applies exactly once even when the
 * client deliberately resends its whole burst — the (clientId, seq)
 * fence must dedup every duplicate. Run under TSan this doubles as the
 * reactor's data-race suite.
 *
 * Also home of the oversized-request regression: a near-limit frame
 * must not pin its receive buffer forever; the server releases the
 * capacity and counts it in qdel_serve_buffer_shrinks_total.
 */

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.hh"
#include "persist/state_codec.hh"
#include "serve/conn_buffer.hh"
#include "serve/server.hh"
#include "serve/service.hh"
#include "serve/wire.hh"

namespace qdel {
namespace serve {
namespace {

/** Blocking loopback client (one per stress thread). */
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

    /** Read one HTTP response (head + Content-Length body); "" on
     *  error. Requires the server to emit Content-Length, which it
     *  always does. */
    std::string
    readHttpResponse()
    {
        while (buffered_.find("\r\n\r\n") == std::string::npos) {
            if (!fill())
                return "";
        }
        const size_t head_end = buffered_.find("\r\n\r\n") + 4;
        const std::string head = buffered_.substr(0, head_end);
        size_t content_length = 0;
        const size_t at = head.find("Content-Length:");
        if (at != std::string::npos)
            content_length = static_cast<size_t>(
                std::atoll(head.c_str() + at + 15));
        while (buffered_.size() < head_end + content_length) {
            if (!fill())
                return "";
        }
        std::string response =
            buffered_.substr(0, head_end + content_length);
        buffered_.erase(0, head_end + content_length);
        return response;
    }

  private:
    bool
    fill()
    {
        char chunk[4096];
        const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
        if (n <= 0)
            return false;
        buffered_.append(chunk, static_cast<size_t>(n));
        return true;
    }

    std::string
    readExactly(size_t count)
    {
        while (buffered_.size() < count) {
            if (!fill())
                break;
        }
        if (buffered_.size() < count)
            return "";
        std::string out = buffered_.substr(0, count);
        buffered_.erase(0, count);
        return out;
    }

    int fd_ = -1;
    bool connected_ = false;
    std::string buffered_;
};

uint64_t
counterValue(const std::string &name)
{
    for (const auto &counter : obs::registry().snapshot().counters) {
        if (counter.name == name)
            return counter.value;
    }
    return 0;
}

struct EventReply
{
    bool ok = false;
    bool applied = false;
    bool deduped = false;
};

EventReply
parseEventReply(const std::string &payload)
{
    EventReply reply;
    if (payload.empty() ||
        payload[0] != static_cast<char>(Status::Ok))
        return reply;
    persist::StateReader reader(
        std::string_view(payload).substr(1));
    const bool applied = reader.u8() != 0;
    reader.str();  // reject reason
    const bool deduped = reader.u8() != 0;
    if (!reader.ok())
        return reply;
    reply.ok = true;
    reply.applied = applied;
    reply.deduped = deduped;
    return reply;
}

class ReactorStressTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        obs::setEnabled(true);
        ServiceConfig config;
        config.registry.shards = 4;
        config.registry.epochSeconds = 5;
        config.registry.trainJobs = 10;
        auto opened = BoundService::open(config);
        ASSERT_TRUE(opened.ok());
        service_ = std::move(opened).value();

        ServerOptions options;
        options.reactorThreads = 4;
        options.maxConnections = 128;
        auto server = BoundServer::start(*service_, options);
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

    std::unique_ptr<BoundService> service_;
    std::unique_ptr<BoundServer> server_;
};

constexpr int kClients = 64;       // Half binary, half HTTP.
constexpr uint64_t kJobsPerClient = 8;

/** One binary client: a pipelined burst of submit/start/ping triples,
 *  then the identical burst again (every event must dedup), then a
 *  pipelined query burst. Answers must arrive in send order. */
bool
runBinaryClient(int port, int index, std::atomic<int> *failures)
{
    Client client(port);
    if (!client.connected()) {
        ++*failures;
        return false;
    }
    const std::string client_id = "stress-" + std::to_string(index);
    const std::string machine = "stress";
    const std::string queue = "q" + std::to_string(index % 4);

    std::string burst;
    for (uint64_t job = 1; job <= kJobsPerClient; ++job) {
        JobEvent submit;
        submit.kind = EventKind::Submit;
        // Job ids are unique per key across clients sharing a queue.
        submit.jobId = static_cast<uint64_t>(index) * 1000 + job;
        submit.time = 100.0 * static_cast<double>(job);
        submit.machine = machine;
        submit.queue = queue;
        submit.procs = 4;
        submit.clientId = client_id;
        submit.seq = 2 * job - 1;
        JobEvent start = submit;
        start.kind = EventKind::Start;
        start.time = submit.time + 30.0;
        start.seq = 2 * job;
        burst += frameRequest(Opcode::Event, encodeEvent(submit));
        burst += frameRequest(Opcode::Event, encodeEvent(start));
        burst += frameRequest(Opcode::Ping, "");
    }

    // Round 1: everything fresh — replies must be, in order:
    // applied, applied, pong for every job.
    if (!client.send(burst)) {
        ++*failures;
        return false;
    }
    for (uint64_t job = 1; job <= kJobsPerClient; ++job) {
        for (int leg = 0; leg < 2; ++leg) {
            const EventReply reply =
                parseEventReply(client.readFrame());
            if (!reply.ok || !reply.applied || reply.deduped) {
                ++*failures;
                return false;
            }
        }
        const std::string pong = client.readFrame();
        if (pong.size() != 5 ||
            pong[0] != static_cast<char>(Status::Ok)) {
            ++*failures;
            return false;
        }
    }

    // Round 2: the identical burst — the (clientId, seq) fence must
    // answer every event deduped, in the same order, applying none.
    if (!client.send(burst)) {
        ++*failures;
        return false;
    }
    for (uint64_t job = 1; job <= kJobsPerClient; ++job) {
        for (int leg = 0; leg < 2; ++leg) {
            const EventReply reply =
                parseEventReply(client.readFrame());
            if (!reply.ok || reply.applied || !reply.deduped) {
                ++*failures;
                return false;
            }
        }
        const std::string pong = client.readFrame();
        if (pong.size() != 5 ||
            pong[0] != static_cast<char>(Status::Ok)) {
            ++*failures;
            return false;
        }
    }

    // Round 3: a pipelined query burst through the batched read path.
    BoundQuery query;
    query.machine = machine;
    query.queue = queue;
    query.procs = 4;
    query.quantile = 0.95;
    std::string queries;
    for (int i = 0; i < 16; ++i)
        queries += frameRequest(Opcode::Query, encodeQuery(query));
    if (!client.send(queries)) {
        ++*failures;
        return false;
    }
    for (int i = 0; i < 16; ++i) {
        const std::string payload = client.readFrame();
        if (payload.empty() ||
            payload[0] != static_cast<char>(Status::Ok)) {
            ++*failures;
            return false;
        }
        auto answer = decodeAnswer(
            std::string_view(payload).substr(1));
        if (!answer.ok() || !answer.value().known) {
            ++*failures;
            return false;
        }
    }
    return true;
}

/** One HTTP client: pipelined keep-alive healthz/bound requests, then
 *  a final close-delimited one. */
bool
runHttpClient(int port, int index, std::atomic<int> *failures)
{
    Client client(port);
    if (!client.connected()) {
        ++*failures;
        return false;
    }
    const std::string keep =
        "GET /healthz HTTP/1.1\r\nHost: t\r\n"
        "Connection: keep-alive\r\n\r\n"
        "GET /bound?machine=stress&queue=q" +
        std::to_string(index % 4) +
        "&procs=4&q=0.95 HTTP/1.1\r\nHost: t\r\n"
        "Connection: keep-alive\r\n\r\n"
        "GET /stats HTTP/1.1\r\nHost: t\r\n"
        "Connection: keep-alive\r\n\r\n";
    if (!client.send(keep)) {
        ++*failures;
        return false;
    }
    for (int i = 0; i < 3; ++i) {
        const std::string response = client.readHttpResponse();
        if (response.find("HTTP/1.1 200") != 0 ||
            response.find("Connection: keep-alive") ==
                std::string::npos) {
            ++*failures;
            return false;
        }
    }
    // Default (no keep-alive header): answered then closed.
    if (!client.send("GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")) {
        ++*failures;
        return false;
    }
    const std::string last = client.readHttpResponse();
    if (last.find("HTTP/1.1 200") != 0 ||
        last.find("Connection: close") == std::string::npos) {
        ++*failures;
        return false;
    }
    return true;
}

TEST_F(ReactorStressTest, PipelinedClientsKeepOrderingAndExactlyOnce)
{
    std::atomic<int> failures{0};
    std::vector<std::thread> threads;
    threads.reserve(kClients);
    for (int i = 0; i < kClients; ++i) {
        const int port = server_->port();
        if (i % 2 == 0) {
            threads.emplace_back([port, i, &failures] {
                runBinaryClient(port, i, &failures);
            });
        } else {
            threads.emplace_back([port, i, &failures] {
                runHttpClient(port, i, &failures);
            });
        }
    }
    for (auto &thread : threads)
        thread.join();
    EXPECT_EQ(failures.load(), 0);

    // Exactly-once: 32 binary clients x 16 events, every duplicate
    // deduped — the registry processed exactly one copy of each.
    const ServeStats stats = service_->stats();
    const uint64_t processed =
        std::accumulate(stats.processedPerShard.begin(),
                        stats.processedPerShard.end(), uint64_t{0});
    EXPECT_EQ(processed, uint64_t{kClients / 2} * 2 * kJobsPerClient);
}

TEST_F(ReactorStressTest, OversizedRequestReleasesBufferCapacity)
{
    const uint64_t shrinks_before =
        counterValue("qdel_serve_buffer_shrinks_total");

    // A query whose machine name alone is far past the shrink
    // threshold forces the receive buffer to grow while the frame
    // dribbles in; once serviced, the capacity must be given back.
    BoundQuery query;
    query.machine = std::string(512 * 1024, 'm');
    query.queue = "q";
    query.procs = 4;
    Client client(server_->port());
    ASSERT_TRUE(client.connected());
    ASSERT_TRUE(client.send(frameRequest(Opcode::Query,
                                         encodeQuery(query))));
    const std::string payload = client.readFrame();
    ASSERT_FALSE(payload.empty());
    EXPECT_EQ(payload[0], static_cast<char>(Status::Ok));
    auto answer = decodeAnswer(std::string_view(payload).substr(1));
    ASSERT_TRUE(answer.ok());
    EXPECT_FALSE(answer.value().known);

    // The response flushes just before the loop thread runs the
    // shrink, so the counter can trail the answer by a beat.
    uint64_t shrinks_after = shrinks_before;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (std::chrono::steady_clock::now() < deadline) {
        shrinks_after =
            counterValue("qdel_serve_buffer_shrinks_total");
        if (shrinks_after > shrinks_before)
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    EXPECT_GT(shrinks_after, shrinks_before);
}

TEST(ReactorOptions, ThreadCountIsValidated)
{
    ServerOptions options;
    options.reactorThreads = 257;
    EXPECT_FALSE(options.validate().ok());
    options.reactorThreads = 0;  // 0 = hardware concurrency: valid.
    EXPECT_TRUE(options.validate().ok());
}

} // namespace
} // namespace serve
} // namespace qdel
