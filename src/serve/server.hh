/**
 * @file
 * The TCP front end of the bound service: one listening port speaking
 * both the length-prefixed binary framing and HTTP/1.1.
 *
 * Protocol sniff: the first four bytes of a connection decide. A
 * binary frame starts with a little-endian u32 payload length below
 * kMaxFrameBytes (< 2^24), so its fourth byte is always NUL; an HTTP
 * request starts with an ASCII method and never contains NUL there.
 * Binary connections then loop frames until EOF; HTTP connections
 * answer request after request while the client sends
 * "Connection: keep-alive", and close after the first request that
 * does not (Connection: close is the default).
 *
 * Threading and overload behaviour: a sharded epoll reactor and
 * nothing else — reactorThreads event loops, each owning an epoll
 * instance, and no other server thread. The nonblocking listener sits
 * in every loop's epoll set (EPOLLEXCLUSIVE); a woken loop accepts
 * until EAGAIN and pins each connection to the least-loaded loop for
 * its lifetime (no cross-thread migration, so connection state needs
 * no locks). Sockets are nonblocking and edge-triggered: a readable
 * connection is drained into a reusable per-connection buffer, every
 * complete frame in the batch is handled (consecutive bound queries
 * dispatch through BoundRegistry::queryBatch), and the concatenated
 * responses flush with one send — a pipelined client costs ~2
 * syscalls per batch. Events are only staged while their frames are
 * handled; once every ready connection of the wake was read, the loop
 * commits (fsyncs) each shard the wake touched once and then flushes
 * the connections holding event replies, so an ack follows the fsync
 * that covers it (the group commit, see service.hh). A failed commit
 * closes the connections waiting on it without a reply. When the total connection count reaches
 * maxConnections, the accepting loop keeps the new connection only to
 * refuse it: the same protocol sniff picks a structured refusal (HTTP
 * 503 + Retry-After, or a binary Status::Shed frame for a client
 * silent through a 100ms grace window), which is flushed before the
 * close. The lock-free query path keeps serving the last-published
 * snapshots throughout; shedding never blocks a loop.
 *
 * Deadlines: each loop runs a hashed timing wheel. A connection
 * waiting for the next request may idle up to idleTimeoutMs; once a
 * request is partially received (or a response partially sent) the
 * remainder must complete within ioTimeoutMs or the connection is
 * reaped (counted in qdel_serve_reaped_connections_total) — the
 * slow-loris bound. A transient accept() error (EMFILE, ENFILE,
 * ENOBUFS, ECONNABORTED) takes the listener out of the erring loop's
 * epoll set for a capped backoff (1ms doubling to 100ms), counted in
 * qdel_serve_accept_errors_total; the loop serves its connections
 * meanwhile.
 *
 * Fault injection: accept/recv/send run through serve::netfault, the
 * deterministic network-fault hook the chaos sweep drives (short
 * reads, short writes, resets, accept failures, stalls).
 */

#ifndef QDEL_SERVE_SERVER_HH
#define QDEL_SERVE_SERVER_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "serve/service.hh"
#include "util/expected.hh"

namespace qdel {
namespace serve {

struct ServerOptions
{
    /** Port to bind; 0 picks an ephemeral port (see port()). */
    int port = 0;
    /** Bind address; the default keeps the daemon loopback-only. */
    std::string bindAddress = "127.0.0.1";

    /** Connection slots; the (maxConnections + 1)th concurrent
     *  connection is shed with 503 / Status::Shed. */
    size_t maxConnections = 64;

    /** Reactor event-loop threads; 0 picks the hardware concurrency.
     *  Connections are pinned to the least-loaded loop at accept. */
    size_t reactorThreads = 0;

    /** Budget for finishing a partially-received request or a
     *  partially-sent response, milliseconds. */
    int ioTimeoutMs = 5000;

    /** How long a connection may sit idle between requests before it
     *  is reaped, milliseconds. */
    int idleTimeoutMs = 30000;

    /**
     * Slow-request log threshold, microseconds; 0 disables. Requests
     * (binary frames, query batches, HTTP requests) whose handling
     * exceeds the threshold are logged with their duration and trace
     * id, rate-limited to at most one line per 100ms per reactor loop
     * so a pathological workload cannot turn the log into the
     * bottleneck it is diagnosing.
     */
    int64_t slowRequestUs = 0;

    Expected<Unit> validate() const;
};

class BoundServer
{
  public:
    /** Bind + listen + start the reactor loops. @p service must
     *  outlive the server. */
    static Expected<std::unique_ptr<BoundServer>>
    start(BoundService &service, const ServerOptions &options);

    ~BoundServer();

    /** The bound port (the chosen one when options.port was 0). */
    int port() const;

    /** Close every connection and the listener; join the loops.
     *  Idempotent. */
    void stop();

  private:
    struct Impl;
    explicit BoundServer(std::unique_ptr<Impl> impl);
    std::unique_ptr<Impl> impl_;
};

} // namespace serve
} // namespace qdel

#endif // QDEL_SERVE_SERVER_HH
