/**
 * @file
 * Framing edge cases over a live socket: frames dribbled in one byte
 * at a time, payloads at exactly kMaxFrameBytes, zero-length payloads,
 * and a truncated frame followed by a reconnect — the shapes a hostile
 * or merely unlucky network produces that a unit test of the codec
 * alone cannot exercise.
 */

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cstring>
#include <string>

#include <gtest/gtest.h>

#include "serve/server.hh"
#include "serve/service.hh"
#include "serve/wire.hh"

namespace qdel {
namespace serve {
namespace {

class WireEdgeTest : public ::testing::Test
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
        // Generous io deadline: the dribble test sends a whole frame
        // one byte at a time and must not be reaped mid-dribble.
        options.ioTimeoutMs = 10000;
        options.idleTimeoutMs = 10000;
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

    std::unique_ptr<BoundService> service_;
    std::unique_ptr<BoundServer> server_;
};

class Client
{
  public:
    explicit Client(int port)
    {
        fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
        if (fd_ < 0)
            return;
        struct timeval timeout;
        timeout.tv_sec = 15;
        timeout.tv_usec = 0;
        ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout,
                     sizeof(timeout));
        struct sockaddr_in address;
        std::memset(&address, 0, sizeof(address));
        address.sin_family = AF_INET;
        address.sin_port = htons(static_cast<uint16_t>(port));
        ::inet_pton(AF_INET, "127.0.0.1", &address.sin_addr);
        if (::connect(fd_, reinterpret_cast<struct sockaddr *>(&address),
                      sizeof(address)) != 0) {
            ::close(fd_);
            fd_ = -1;
        }
    }

    ~Client()
    {
        if (fd_ >= 0)
            ::close(fd_);
    }

    bool connected() const { return fd_ >= 0; }

    bool
    send(std::string_view bytes)
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

    /** Send one byte at a time with TCP_NODELAY-free pacing left to
     *  the kernel; the server must reassemble regardless. */
    bool
    sendDribble(std::string_view bytes)
    {
        for (char c : bytes)
            if (!send(std::string_view(&c, 1)))
                return false;
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
            char chunk[65536];
            const size_t want = std::min(count - out->size(),
                                         sizeof(chunk));
            const ssize_t n = ::recv(fd_, chunk, want, 0);
            if (n <= 0)
                return false;
            out->append(chunk, static_cast<size_t>(n));
        }
        return true;
    }

    /** @return true when the peer closed the connection. */
    bool
    readToEof()
    {
        char chunk[4096];
        for (;;) {
            const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
            if (n == 0)
                return true;
            if (n < 0)
                return false;
        }
    }

  private:
    int fd_ = -1;
};

std::string
pingRequest()
{
    return frameRequest(Opcode::Ping, "");
}

void
expectPingOk(const std::string &payload)
{
    ASSERT_GE(payload.size(), 5u);
    EXPECT_EQ(static_cast<uint8_t>(payload[0]),
              static_cast<uint8_t>(Status::Ok));
    uint32_t version = 0;
    std::memcpy(&version, payload.data() + 1, 4);
    EXPECT_EQ(version, kWireVersion);
}

TEST_F(WireEdgeTest, FrameSplitAcrossSingleByteReadsStillParses)
{
    Client client(server_->port());
    ASSERT_TRUE(client.connected());
    ASSERT_TRUE(client.sendDribble(pingRequest()));
    std::string payload;
    ASSERT_TRUE(client.readFrame(&payload));
    expectPingOk(payload);

    // The connection survives and parses a second dribbled frame — the
    // read buffer must not carry stale offsets across frames.
    JobEvent event;
    event.kind = EventKind::Submit;
    event.jobId = 1;
    event.time = 10.0;
    event.machine = "m";
    event.queue = "q";
    event.procs = 4;
    ASSERT_TRUE(client.sendDribble(
        frameRequest(Opcode::Event, encodeEvent(event))));
    ASSERT_TRUE(client.readFrame(&payload));
    ASSERT_GE(payload.size(), 1u);
    EXPECT_EQ(static_cast<uint8_t>(payload[0]),
              static_cast<uint8_t>(Status::Ok));
}

TEST_F(WireEdgeTest, ExactlyMaxFrameBytesPayloadIsAccepted)
{
    // A payload of exactly kMaxFrameBytes is legal; one byte more is
    // a protocol error. Build the boundary frame by hand: opcode +
    // filler must total kMaxFrameBytes.
    Client client(server_->port());
    ASSERT_TRUE(client.connected());
    std::string payload;
    payload.push_back(static_cast<char>(Opcode::Event));
    payload.append(kMaxFrameBytes - 1, '\0');
    ASSERT_EQ(payload.size(), kMaxFrameBytes);
    ASSERT_TRUE(client.send(frame(payload)));
    std::string response;
    ASSERT_TRUE(client.readFrame(&response));
    // The body is garbage, so the server answers Error — but it
    // answers, proving the boundary-size frame cleared framing.
    ASSERT_GE(response.size(), 1u);
    EXPECT_EQ(static_cast<uint8_t>(response[0]),
              static_cast<uint8_t>(Status::Error));
    // And the connection is still usable.
    ASSERT_TRUE(client.send(pingRequest()));
    ASSERT_TRUE(client.readFrame(&response));
    expectPingOk(response);
}

TEST_F(WireEdgeTest, OversizeLengthHeaderClosesTheConnection)
{
    Client client(server_->port());
    ASSERT_TRUE(client.connected());
    uint32_t length = kMaxFrameBytes + 1;
    std::string header(4, '\0');
    std::memcpy(header.data(), &length, 4);
    ASSERT_TRUE(client.send(header));
    // A corrupt length cannot be resynchronized: the server answers an
    // error frame (if it can) and closes.
    client.readToEof();
    Client fresh(server_->port());
    ASSERT_TRUE(fresh.connected());
    ASSERT_TRUE(fresh.send(pingRequest()));
    std::string payload;
    ASSERT_TRUE(fresh.readFrame(&payload));
    expectPingOk(payload);
}

TEST_F(WireEdgeTest, ZeroLengthPayloadAnswersErrorAndSurvives)
{
    Client client(server_->port());
    ASSERT_TRUE(client.connected());
    // u32 len = 0, no payload: not even an opcode byte.
    ASSERT_TRUE(client.send(std::string(4, '\0')));
    std::string payload;
    ASSERT_TRUE(client.readFrame(&payload));
    ASSERT_GE(payload.size(), 1u);
    EXPECT_EQ(static_cast<uint8_t>(payload[0]),
              static_cast<uint8_t>(Status::Error));
    // The empty frame was cleanly consumed; the stream continues.
    ASSERT_TRUE(client.send(pingRequest()));
    ASSERT_TRUE(client.readFrame(&payload));
    expectPingOk(payload);
}

TEST_F(WireEdgeTest, TruncatedFrameThenReconnectLeavesServerHealthy)
{
    JobEvent event;
    event.kind = EventKind::Submit;
    event.jobId = 7;
    event.time = 5.0;
    event.machine = "m";
    event.queue = "q";
    event.procs = 2;
    event.clientId = "edge";
    event.seq = 1;
    const std::string request =
        frameRequest(Opcode::Event, encodeEvent(event));

    {
        // Send the header and half the payload, then vanish.
        Client client(server_->port());
        ASSERT_TRUE(client.connected());
        ASSERT_TRUE(client.send(
            std::string_view(request).substr(0, request.size() / 2)));
    }  // abrupt close with a frame in flight

    // The half-delivered event must not have been applied...
    uint64_t processed = 0;
    for (uint64_t count : service_->stats().processedPerShard)
        processed += count;
    EXPECT_EQ(processed, 0u);

    // ...and a reconnect delivers it normally.
    Client retry(server_->port());
    ASSERT_TRUE(retry.connected());
    ASSERT_TRUE(retry.send(request));
    std::string payload;
    ASSERT_TRUE(retry.readFrame(&payload));
    ASSERT_GE(payload.size(), 1u);
    EXPECT_EQ(static_cast<uint8_t>(payload[0]),
              static_cast<uint8_t>(Status::Ok));
    processed = 0;
    for (uint64_t count : service_->stats().processedPerShard)
        processed += count;
    EXPECT_EQ(processed, 1u);
}

TEST_F(WireEdgeTest, ManyFramesInOneWriteAllGetAnswers)
{
    // The opposite of the dribble: a burst of pipelined frames in a
    // single send must yield exactly one response per frame.
    Client client(server_->port());
    ASSERT_TRUE(client.connected());
    std::string burst;
    constexpr int kFrames = 32;
    for (int i = 0; i < kFrames; ++i)
        burst += pingRequest();
    ASSERT_TRUE(client.send(burst));
    for (int i = 0; i < kFrames; ++i) {
        std::string payload;
        ASSERT_TRUE(client.readFrame(&payload)) << "frame " << i;
        expectPingOk(payload);
    }
}

} // namespace
} // namespace serve
} // namespace qdel
