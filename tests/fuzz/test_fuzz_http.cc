/**
 * @file
 * Deterministic malformed-HTTP fuzzing of the serve front end.
 *
 * Two layers:
 *
 *  - parser-level: seeded mutations of well-formed request heads fed
 *    straight into parseRequestHead(), asserting the recoverable-error
 *    contract (parse or fail with context, never crash) plus the
 *    hardening limits (header-count cap reported as its own field so
 *    the server can answer 431);
 *
 *  - socket-level: the same generator writes hostile bytes at a live
 *    BoundServer — binary garbage, oversized request lines, header
 *    floods, Content-Length lies — and asserts the server either
 *    answers a well-formed HTTP status line or closes the connection,
 *    and always remains healthy for the next client.
 *
 * Mutations are driven by the repo's portable Rng so a failing
 * iteration reproduces from its seed on every platform.
 * QDEL_FUZZ_ITERATIONS overrides the per-property iteration count.
 */

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cstdlib>
#include <cstring>
#include <iterator>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "serve/http.hh"
#include "serve/server.hh"
#include "serve/service.hh"
#include "serve/wire.hh"
#include "stats/rng.hh"
#include "util/string_utils.hh"

namespace qdel {
namespace serve {
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

/** Fragments the mutator splices into request heads. */
const char *const kPoisons[] = {
    "\r\n\r\n",  "\r\n",     "\x00",     "\xff\xfe", "GET ",
    "HTTP/1.1", ": ",       " ",        "%",        "?a=b&c=",
    "........", "\t\t\t",    "Content-Length: 999999999999999999999",
    "Transfer-Encoding: chunked",
};

std::string
wellFormedHead(stats::Rng &rng)
{
    std::string head = "GET /bound?machine=m&procs=4 HTTP/1.1\r\n";
    const int headers = static_cast<int>(rng.uniformInt(0, 5));
    for (int i = 0; i < headers; ++i)
        head += "X-H" + std::to_string(i) + ": v\r\n";
    head += "\r\n";
    return head;
}

std::string
mutate(stats::Rng &rng, std::string head)
{
    const int edits = static_cast<int>(rng.uniformInt(1, 6));
    for (int e = 0; e < edits; ++e) {
        switch (rng.uniformInt(0, 3)) {
        case 0: {  // splice a poison fragment at a random offset
            const char *poison = kPoisons[rng.uniformInt(
                0, static_cast<long long>(std::size(kPoisons)) - 1)];
            const size_t at = static_cast<size_t>(
                rng.uniformInt(0, static_cast<long long>(head.size())));
            head.insert(at, poison);
            break;
        }
        case 1: {  // flip a byte
            if (head.empty())
                break;
            const size_t at = static_cast<size_t>(rng.uniformInt(
                0, static_cast<long long>(head.size()) - 1));
            head[at] = static_cast<char>(rng.uniformInt(0, 255));
            break;
        }
        case 2: {  // truncate
            if (head.empty())
                break;
            head.resize(static_cast<size_t>(rng.uniformInt(
                0, static_cast<long long>(head.size()) - 1)));
            break;
        }
        default: {  // duplicate a run
            if (head.empty())
                break;
            const size_t at = static_cast<size_t>(rng.uniformInt(
                0, static_cast<long long>(head.size()) - 1));
            const size_t len = std::min(
                head.size() - at,
                static_cast<size_t>(rng.uniformInt(1, 32)));
            head += head.substr(at, len);
            break;
        }
        }
    }
    return head;
}

TEST(FuzzHttpParser, MutatedHeadsParseOrFailWithContextNeverCrash)
{
    for (size_t i = 0; i < iterations() * 10; ++i) {
        stats::Rng iter(0x48545450u + static_cast<uint64_t>(i));
        const std::string head = mutate(iter, wellFormedHead(iter));
        auto parsed = parseRequestHead(head);
        if (parsed.ok()) {
            // The contract for accepted heads: a non-empty method and
            // a path (hardening caps fire inside the parser).
            EXPECT_FALSE(parsed.value().method.empty())
                << "iteration " << i;
            EXPECT_FALSE(parsed.value().path.empty())
                << "iteration " << i;
        } else {
            EXPECT_FALSE(parsed.error().reason.empty())
                << "iteration " << i;
        }
    }
}

TEST(FuzzHttpParser, HeaderFloodIsRejectedAsHeaderCount)
{
    std::string head = "GET / HTTP/1.1\r\n";
    for (size_t i = 0; i < kMaxHttpHeaderCount + 1; ++i)
        head += "X-" + std::to_string(i) + ": v\r\n";
    head += "\r\n";
    auto parsed = parseRequestHead(head);
    ASSERT_FALSE(parsed.ok());
    EXPECT_EQ(parsed.error().field, "http.headerCount");
}

// --- socket-level fuzzing -------------------------------------------

class FuzzHttpServer : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        ServiceConfig config;
        config.registry.shards = 2;
        config.registry.epochSeconds = 5;
        config.registry.trainJobs = 10;
        auto opened = BoundService::open(config);
        ASSERT_TRUE(opened.ok());
        service_ = std::move(opened).value();
        ServerOptions options;
        options.ioTimeoutMs = 500;
        options.idleTimeoutMs = 500;
        auto server = BoundServer::start(*service_, options);
        ASSERT_TRUE(server.ok());
        server_ = std::move(server).value();
    }

    void
    TearDown() override
    {
        if (server_)
            server_->stop();
    }

    int
    connectToServer()
    {
        const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
        if (fd < 0)
            return -1;
        struct timeval timeout;
        timeout.tv_sec = 5;
        timeout.tv_usec = 0;
        ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout,
                     sizeof(timeout));
        struct sockaddr_in address;
        std::memset(&address, 0, sizeof(address));
        address.sin_family = AF_INET;
        address.sin_port = htons(static_cast<uint16_t>(server_->port()));
        ::inet_pton(AF_INET, "127.0.0.1", &address.sin_addr);
        if (::connect(fd, reinterpret_cast<struct sockaddr *>(&address),
                      sizeof(address)) != 0) {
            ::close(fd);
            return -1;
        }
        return fd;
    }

    /** @return everything the server sent before closing/deadline. */
    std::string
    exchange(std::string_view request)
    {
        const int fd = connectToServer();
        EXPECT_GE(fd, 0);
        if (fd < 0)
            return "";
        size_t sent = 0;
        while (sent < request.size()) {
            const ssize_t n =
                ::send(fd, request.data() + sent, request.size() - sent,
                       MSG_NOSIGNAL);
            if (n <= 0)
                break;  // server already rejected+closed: fine
            sent += static_cast<size_t>(n);
        }
        std::string response;
        char chunk[4096];
        for (;;) {
            const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
            if (n <= 0)
                break;
            response.append(chunk, static_cast<size_t>(n));
        }
        ::close(fd);
        return response;
    }

    /** The health probe between hostile exchanges. */
    void
    expectServerHealthy()
    {
        const std::string response =
            exchange("GET /healthz HTTP/1.1\r\n\r\n");
        EXPECT_EQ(response.rfind("HTTP/1.1 200", 0), 0u)
            << "server unhealthy after hostile input: " << response;
    }

    std::unique_ptr<BoundService> service_;
    std::unique_ptr<BoundServer> server_;
};

/** Responses that start like HTTP must be complete status lines. */
void
expectWellFormedOrEmpty(const std::string &response, size_t iteration)
{
    if (response.empty())
        return;  // server closed without answering: acceptable
    // HTTP path answers "HTTP/1.1 NNN ..."; the binary path answers a
    // length-prefixed error frame whose 4th byte is NUL.
    if (response.rfind("HTTP/1.1 ", 0) == 0) {
        ASSERT_GE(response.size(), 12u) << "iteration " << iteration;
        const std::string code = response.substr(9, 3);
        const int status = std::atoi(code.c_str());
        EXPECT_GE(status, 100) << "iteration " << iteration;
        EXPECT_LT(status, 600) << "iteration " << iteration;
    } else {
        ASSERT_GE(response.size(), 4u) << "iteration " << iteration;
        EXPECT_EQ(response[3], '\0')
            << "iteration " << iteration
            << ": non-HTTP response with a non-binary shape";
    }
}

TEST_F(FuzzHttpServer, MutatedRequestsGetWellFormedAnswersOrCloses)
{
    for (size_t i = 0; i < iterations(); ++i) {
        stats::Rng rng(0xf00du + static_cast<uint64_t>(i));
        const std::string request = mutate(rng, wellFormedHead(rng));
        SCOPED_TRACE("iteration " + std::to_string(i));
        expectWellFormedOrEmpty(exchange(request), i);
    }
    expectServerHealthy();
}

TEST_F(FuzzHttpServer, OversizedRequestLineAnswers431)
{
    const std::string request =
        "GET /" + std::string(kMaxHttpHeadBytes, 'a') + " HTTP/1.1\r\n\r\n";
    const std::string response = exchange(request);
    EXPECT_EQ(response.rfind("HTTP/1.1 431", 0), 0u) << response;
    expectServerHealthy();
}

TEST_F(FuzzHttpServer, HeaderFloodAnswers431)
{
    std::string request = "GET /healthz HTTP/1.1\r\n";
    for (size_t i = 0; i < kMaxHttpHeaderCount + 8; ++i)
        request += "X-Flood-" + std::to_string(i) + ": v\r\n";
    request += "\r\n";
    const std::string response = exchange(request);
    EXPECT_EQ(response.rfind("HTTP/1.1 431", 0), 0u) << response;
    expectServerHealthy();
}

TEST_F(FuzzHttpServer, PostWithoutContentLengthAnswers411)
{
    const std::string response = exchange(
        "POST /event?kind=submit&job=1&time=1&machine=m&procs=1 "
        "HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n");
    EXPECT_EQ(response.rfind("HTTP/1.1 411", 0), 0u) << response;
    expectServerHealthy();
}

TEST_F(FuzzHttpServer, HugeContentLengthAnswers413)
{
    const std::string response = exchange(
        "POST /event HTTP/1.1\r\nContent-Length: 10485760\r\n\r\n");
    EXPECT_EQ(response.rfind("HTTP/1.1 413", 0), 0u) << response;
    expectServerHealthy();
}

TEST_F(FuzzHttpServer, PureGarbageBytesDoNotWedgeTheServer)
{
    for (size_t i = 0; i < iterations(); ++i) {
        stats::Rng rng(0xdeadu + static_cast<uint64_t>(i));
        std::string garbage;
        const int len = static_cast<int>(rng.uniformInt(1, 2048));
        garbage.reserve(static_cast<size_t>(len));
        for (int b = 0; b < len; ++b)
            garbage.push_back(static_cast<char>(rng.uniformInt(0, 255)));
        exchange(garbage);  // any response shape; must not wedge
    }
    expectServerHealthy();
}

} // namespace
} // namespace serve
} // namespace qdel
