/**
 * @file
 * Implementation of the TCP front end: a sharded epoll reactor whose
 * loops also accept and shed. See server.hh for the loop model,
 * deadline, and shedding semantics. This file is transport only: what
 * an HTTP request means and every JSON body are in routes.cc; the
 * binary opcodes are dispatched here, next to the query batch scratch
 * they share.
 *
 * Hot-path invariants the reactor maintains:
 *
 *  - a connection belongs to exactly one loop, so all of its state
 *    (buffers, deadlines, timer links) is touched by one thread only;
 *  - reads are edge-triggered and drained to EAGAIN; every complete
 *    frame in the drained bytes is handled before a single flush, so a
 *    pipelined client costs ~2 syscalls per batch;
 *  - responses are appended into a per-connection scratch string that
 *    is cleared (capacity retained) after each flush, and consecutive
 *    bound queries dispatch through BoundRegistry::queryBatch — the
 *    steady state allocates nothing per request;
 *  - deadlines live in a per-loop hashed timing wheel (10ms ticks);
 *    arming is two pointer writes, so every serviced request can
 *    re-arm without heap or lock traffic;
 *  - no loop ever blocks on a socket: the listener is level-triggered
 *    and EPOLLEXCLUSIVE in every loop, a transient accept() error
 *    drops it from the erring loop's set for a capped backoff, and a
 *    shed connection is an ordinary nonblocking Conn whose grace
 *    window is a wheel deadline;
 *  - group commit: an event is staged (WAL write + apply) when its
 *    frame is handled, and its shard is committed (one fsync) once per
 *    wake, after every ready connection was read. A connection whose
 *    output holds an event reply flushes only after that commit; a
 *    query-only connection flushes as soon as it is read. A failed
 *    commit closes the connections waiting on it without a reply.
 */

#include "serve/server.hh"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <thread>
#include <unordered_set>
#include <vector>

#include "obs/domain_metrics.hh"
#include "obs/events.hh"
#include "obs/obs.hh"
#include "serve/conn_buffer.hh"
#include "serve/http.hh"
#include "serve/netfault.hh"
#include "serve/routes.hh"
#include "serve/timer_wheel.hh"
#include "util/logging.hh"

namespace qdel {
namespace serve {

namespace {

using Clock = std::chrono::steady_clock;

/** Accept-error backoff cap; the first pause is 1ms and doubles. */
constexpr int kAcceptBackoffCapMs = 100;

/** Retry-After advertised when connection slots are exhausted. */
constexpr uint32_t kShedRetryAfterSeconds = 1;

/** Grace window a shed connection gets to reveal its protocol (and
 *  then to drain the refusal); a silent client gets the binary frame. */
constexpr int kShedGraceMs = 100;

/** Most shed connections in flight server-wide; beyond this the
 *  overflow is refused with a bare close. */
constexpr size_t kMaxShedInFlight = 64;

/** Most events one epoll_wait() hands back per loop iteration. */
constexpr int kMaxEpollEvents = 64;

/** Response scratch capacities above this are released after a flush
 *  (the out-buffer twin of ConnBuffer::shrinkIfOversized). */
constexpr size_t kOutScratchShrinkBytes = ConnBuffer::kShrinkThreshold;

std::chrono::milliseconds
ms(int count)
{
    return std::chrono::milliseconds(count);
}

struct Loop;

/** One reactor-owned connection; touched only by its loop's thread. */
struct Conn
{
    int fd = -1;

    enum class Proto { Sniff, Binary, Http };
    Proto proto = Proto::Sniff;

    ConnBuffer in;         //!< Receive buffer (reused, shrinkable).
    std::string out;       //!< Response arena: cleared, not freed.
    size_t outSent = 0;    //!< Bytes of out already on the wire.
    bool wantWrite = false;  //!< Waiting for EPOLLOUT to finish out.
    bool closing = false;    //!< Close once out is fully flushed.
    /** Over the connection limit: lives only to sniff and refuse.
     *  Written once before the connection is published. */
    bool shed = false;

    /** Shards whose commit the event replies in out wait on; empty
     *  for query-only traffic. Cleared by the end-of-wake commit. */
    std::vector<uint32_t> awaitShards;
    bool awaiting = false;  //!< Listed in Loop::awaiting.

    /** Absolute deadline + which budget armed it (idle vs io). An io
     *  deadline is sticky: dribbled bytes never extend it. */
    Clock::time_point deadline{};
    bool idleDeadline = true;

    /** Intrusive timing-wheel links (slot < 0 = disarmed). */
    Conn *timerPrev = nullptr;
    Conn *timerNext = nullptr;
    int timerSlot = -1;

    /**
     * Introspection mirrors for GET /debug/conns: refreshed by the
     * owning loop thread with relaxed stores whenever the deadline is
     * re-armed, read by whichever loop serves the debug request. The
     * plain fields above stay strictly single-threaded; only these
     * mirrors (and fd and shed, which are written once before the
     * connection is published) ever cross threads.
     */
    std::atomic<uint8_t> protoView{0};      //!< Proto enum value.
    std::atomic<uint64_t> inBytesView{0};   //!< Unparsed receive bytes.
    std::atomic<uint64_t> outBytesView{0};  //!< Unflushed response bytes.
    std::atomic<int64_t> deadlineView{0};   //!< Deadline, steady-clock ns.
    std::atomic<bool> idleView{true};       //!< Idle (vs io) budget armed.

    void
    publishView()
    {
        protoView.store(static_cast<uint8_t>(proto),
                        std::memory_order_relaxed);
        inBytesView.store(in.size(), std::memory_order_relaxed);
        outBytesView.store(out.size() - outSent,
                           std::memory_order_relaxed);
        deadlineView.store(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                deadline.time_since_epoch())
                .count(),
            std::memory_order_relaxed);
        idleView.store(idleDeadline, std::memory_order_relaxed);
    }
};

/** What every loop shares: the listener, admission, and placement. */
struct Reactor
{
    BoundService *service = nullptr;
    ServerOptions options;
    int listenFd = -1;
    std::atomic<bool> stopping{false};
    std::vector<std::unique_ptr<Loop>> loops;

    /** Serialises admission + placement, so two loops accepting at
     *  once cannot both admit the (maxConnections + 1)th connection. */
    std::mutex admitMutex;
    size_t nextLoop = 0;  //!< Round-robin placement start (admitMutex).

    /** Shed connections in flight across all loops. */
    std::atomic<size_t> shedInFlight{0};

    Loop *place();
    std::vector<LoopView> connViews() const;
};

/** One event loop: epoll instance + timer wheel + batch scratch. */
struct Loop
{
    Reactor *reactor = nullptr;
    BoundService *service = nullptr;
    const ServerOptions *options = nullptr;
    int epollFd = -1;
    int wakeFd = -1;  //!< eventfd sibling loops and stop() signal.
    std::thread thread;

    /** New fds placed here by a sibling loop's accept. */
    std::mutex inboxMutex;
    std::vector<int> inbox;

    /** Connections owned by (or reserved for) this loop, shed ones
     *  excluded. Incremented at placement so admission control sees a
     *  connection the instant it is accepted. */
    std::atomic<size_t> connCount{0};

    TimerWheel<Conn> wheel;

    /** After a transient accept() error the listener leaves this
     *  loop's epoll set until listenerResumeAt (capped backoff). */
    bool listenerPaused = false;
    Clock::time_point listenerResumeAt{};
    int acceptBackoffMs = 1;

    /** Guards conns membership only, for GET /debug/conns: the owning
     *  thread takes it around insert/erase, a dumping thread around its
     *  walk. Never held across request handling, so the hot path pays
     *  one uncontended lock per connection lifetime, not per request. */
    std::mutex connsMutex;
    std::unordered_set<Conn *> conns;
    std::vector<Conn *> expired;

    /** Slow-request log rate limiter: obs::nowNanos() of the last
     *  emitted line (loop-thread only). */
    int64_t lastSlowLogNanos = 0;

    /** Group commit, reset every wake: the shards events were staged
     *  into (shardState[s] marks membership, then a failed commit),
     *  and the connections whose replies wait on their commit. */
    std::vector<uint32_t> dirtyShards;
    std::vector<uint8_t> shardState;
    std::vector<Conn *> awaiting;

    /** Query-batch scratch: reset (not freed) between batches. */
    std::vector<BoundQuery> queries;
    std::vector<BoundAnswer> answers;
    size_t queryCount = 0;
    BoundRegistry::QueryScratch queryScratch;

    ~Loop()
    {
        if (epollFd >= 0)
            ::close(epollFd);
        if (wakeFd >= 0)
            ::close(wakeFd);
    }

    void
    wake()
    {
        const uint64_t one = 1;
        [[maybe_unused]] const ssize_t n =
            ::write(wakeFd, &one, sizeof(one));
    }

    void run();
    int pollTimeoutMs() const;
    bool watchListener(bool on);
    void acceptReady();
    void admit(int fd);
    void adopt(int fd, bool shed);
    void adoptInbox();
    void refuseShed(Conn *c);
    void closeConn(Conn *c);
    void onReadable(Conn *c);
    bool onWritable(Conn *c);
    bool flushOut(Conn *c);
    void finishBatch(Conn *c, bool serviced);
    void rearmDeadline(Conn *c, bool serviced);
    void noteStaged(Conn *c, size_t shard);
    void commitStaged();
    void processInput(Conn *c, size_t *frames);
    void processBinary(Conn *c, size_t *frames);
    void processHttp(Conn *c, size_t *frames);
    void handleHttp(Conn *c, const HttpRequest &request);
    void handleFramePayload(Conn *c, std::string_view payload);
    void flushQueryBatch(Conn *c);
    BoundQuery &nextQuerySlot();
    void maybeLogSlow(const char *what, int64_t startNanos, uint64_t trace);
};

/**
 * Measures one request for the --slow-request-us log. Lives on the
 * stack next to the request span; the destructor logs when the elapsed
 * time crossed the threshold. Deliberately separate from QDEL_OBS_SPAN
 * so the log keeps working when observability is compiled out or
 * disabled — it is an operator tool, not a metric.
 */
struct SlowLogGuard
{
    Loop *loop;
    const char *what;      //!< "frame", "query_batch", "http", "commit".
    uint64_t trace = 0;    //!< Filled in once the request is decoded.
    int64_t startNanos;    //!< -1 when the log is disabled.

    SlowLogGuard(Loop *l, const char *w)
        : loop(l), what(w),
          startNanos(l->options->slowRequestUs > 0 ? obs::nowNanos() : -1)
    {
    }

    ~SlowLogGuard()
    {
        if (startNanos >= 0)
            loop->maybeLogSlow(what, startNanos, trace);
    }
};

} // namespace

Expected<Unit>
ServerOptions::validate() const
{
    if (port < 0 || port > 65535) {
        return ParseError{"", 0, "port",
                          "port must be in [0, 65535], got " +
                              std::to_string(port)};
    }
    struct in_addr parsed;
    if (::inet_pton(AF_INET, bindAddress.c_str(), &parsed) != 1) {
        return ParseError{"", 0, "bindAddress",
                          "'" + bindAddress +
                              "' is not an IPv4 address"};
    }
    if (maxConnections < 1 || maxConnections > 4096) {
        return ParseError{"", 0, "maxConnections",
                          "connection slots must be in [1, 4096], got " +
                              std::to_string(maxConnections)};
    }
    if (reactorThreads > 256) {
        return ParseError{"", 0, "reactorThreads",
                          "reactor threads must be in [0, 256], got " +
                              std::to_string(reactorThreads)};
    }
    if (ioTimeoutMs < 1 || idleTimeoutMs < 1) {
        return ParseError{"", 0, "timeouts",
                          "io and idle timeouts must be >= 1 ms"};
    }
    if (slowRequestUs < 0) {
        return ParseError{"", 0, "slowRequestUs",
                          "slow-request threshold must be >= 0 us, got " +
                              std::to_string(slowRequestUs)};
    }
    return Unit{};
}

struct BoundServer::Impl : Reactor
{
    int boundPort = 0;

    void stop();

    ~Impl() { stop(); }
};

BoundServer::BoundServer(std::unique_ptr<Impl> impl)
    : impl_(std::move(impl))
{
}

BoundServer::~BoundServer()
{
    stop();
}

int
BoundServer::port() const
{
    return impl_->boundPort;
}

void
BoundServer::stop()
{
    if (impl_ != nullptr)
        impl_->stop();
}

Expected<std::unique_ptr<BoundServer>>
BoundServer::start(BoundService &service, const ServerOptions &options)
{
    if (auto ok = options.validate(); !ok.ok())
        return ok.error();

    const int fd =
        ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (fd < 0) {
        return ParseError{"", 0, "socket",
                          std::string("socket(): ") + std::strerror(errno)};
    }
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

    struct sockaddr_in address;
    std::memset(&address, 0, sizeof(address));
    address.sin_family = AF_INET;
    address.sin_port = htons(static_cast<uint16_t>(options.port));
    ::inet_pton(AF_INET, options.bindAddress.c_str(), &address.sin_addr);
    if (::bind(fd, reinterpret_cast<struct sockaddr *>(&address),
               sizeof(address)) != 0) {
        const std::string reason = std::strerror(errno);
        ::close(fd);
        return ParseError{"", 0, "bind",
                          "bind(" + options.bindAddress + ":" +
                              std::to_string(options.port) +
                              "): " + reason};
    }
    if (::listen(fd, 64) != 0) {
        const std::string reason = std::strerror(errno);
        ::close(fd);
        return ParseError{"", 0, "listen",
                          std::string("listen(): ") + reason};
    }
    socklen_t address_length = sizeof(address);
    ::getsockname(fd, reinterpret_cast<struct sockaddr *>(&address),
                  &address_length);

    auto impl = std::make_unique<Impl>();
    impl->service = &service;
    impl->listenFd = fd;
    impl->boundPort = static_cast<int>(ntohs(address.sin_port));
    impl->options = options;

    size_t threads = options.reactorThreads;
    if (threads == 0)
        threads = std::max(1u, std::thread::hardware_concurrency());
    // More loops than admissible connections would only idle.
    threads = std::min(threads, options.maxConnections);

    for (size_t i = 0; i < threads; ++i) {
        auto loop = std::make_unique<Loop>();
        loop->reactor = impl.get();
        loop->service = impl->service;
        loop->options = &impl->options;
        loop->shardState.assign(service.shardCount(), 0);
        loop->epollFd = ::epoll_create1(EPOLL_CLOEXEC);
        loop->wakeFd = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
        if (loop->epollFd < 0 || loop->wakeFd < 0) {
            const std::string reason = std::strerror(errno);
            return ParseError{"", 0, "reactor",
                              "epoll/eventfd setup failed: " + reason};
        }
        struct epoll_event event;
        std::memset(&event, 0, sizeof(event));
        event.events = EPOLLIN;
        event.data.ptr = nullptr;  // nullptr marks the wake eventfd.
        if (::epoll_ctl(loop->epollFd, EPOLL_CTL_ADD, loop->wakeFd,
                        &event) != 0 ||
            !loop->watchListener(true)) {
            const std::string reason = std::strerror(errno);
            return ParseError{"", 0, "reactor",
                              "epoll_ctl(wakeFd/listenFd): " + reason};
        }
        impl->loops.push_back(std::move(loop));
    }
    // The loop set is complete before any loop thread exists (sibling
    // placement and GET /debug/conns read it), immutable afterwards.
    for (auto &loop : impl->loops) {
        loop->thread = std::thread([raw = loop.get()] { raw->run(); });
    }
    return std::unique_ptr<BoundServer>(new BoundServer(std::move(impl)));
}

namespace {

Loop *
Reactor::place()
{
    // Admission: the loops' counts include placements not yet adopted,
    // so the (maxConnections + 1)th concurrent connection always sheds.
    // Placement: the least-loaded loop, round-robin start breaking ties.
    std::lock_guard<std::mutex> lock(admitMutex);
    size_t total = 0;
    size_t best = nextLoop % loops.size();
    size_t best_count = static_cast<size_t>(-1);
    for (size_t i = 0; i < loops.size(); ++i) {
        const size_t at = (nextLoop + i) % loops.size();
        const size_t count =
            loops[at]->connCount.load(std::memory_order_relaxed);
        total += count;
        if (count < best_count) {
            best_count = count;
            best = at;
        }
    }
    ++nextLoop;
    if (total >= options.maxConnections)
        return nullptr;
    loops[best]->connCount.fetch_add(1, std::memory_order_relaxed);
    return loops[best].get();
}

/** GET /debug/conns rows: each loop's connections, read from their
 *  relaxed introspection mirrors under the loop's connsMutex. */
std::vector<LoopView>
Reactor::connViews() const
{
    static const char *const kProtoNames[] = {"sniff", "binary", "http"};
    const int64_t now_nanos =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now().time_since_epoch())
            .count();
    std::vector<LoopView> views(loops.size());
    for (size_t i = 0; i < loops.size(); ++i) {
        Loop &loop = *loops[i];
        views[i].connCount = loop.connCount.load(std::memory_order_relaxed);
        std::lock_guard<std::mutex> lock(loop.connsMutex);
        for (const Conn *c : loop.conns) {
            if (c->shed)
                continue;
            const uint8_t proto =
                c->protoView.load(std::memory_order_relaxed);
            ConnView &view = views[i].conns.emplace_back();
            view.fd = c->fd;
            view.proto = proto < 3 ? kProtoNames[proto] : "?";
            view.inBytes = c->inBytesView.load(std::memory_order_relaxed);
            view.outBytes = c->outBytesView.load(std::memory_order_relaxed);
            view.idleDeadline = c->idleView.load(std::memory_order_relaxed);
            view.deadlineMs =
                static_cast<double>(
                    c->deadlineView.load(std::memory_order_relaxed) -
                    now_nanos) /
                1e6;
        }
    }
    return views;
}

void
Loop::run()
{
    QDEL_OBS(obs::serveMetrics().reactorLoops.add(1.0));
    struct epoll_event events[kMaxEpollEvents];
    for (;;) {
        const int n = ::epoll_wait(epollFd, events, kMaxEpollEvents,
                                   pollTimeoutMs());
        if (n < 0 && errno != EINTR)
            break;
        QDEL_OBS(obs::serveMetrics().loopWakeups.inc());
        if (reactor->stopping.load(std::memory_order_acquire))
            break;
        for (int i = 0; i < n; ++i) {
            if (events[i].data.ptr == nullptr) {
                uint64_t drained = 0;
                [[maybe_unused]] const ssize_t r =
                    ::read(wakeFd, &drained, sizeof(drained));
                adoptInbox();
                continue;
            }
            if (events[i].data.ptr == this) {  // The listener.
                acceptReady();
                continue;
            }
            Conn *c = static_cast<Conn *>(events[i].data.ptr);
            if ((events[i].events & EPOLLERR) != 0) {
                closeConn(c);
                continue;
            }
            if ((events[i].events & EPOLLOUT) != 0 && !onWritable(c))
                continue;
            if ((events[i].events &
                 (EPOLLIN | EPOLLRDHUP | EPOLLHUP)) != 0)
                onReadable(c);
        }
        commitStaged();
        const auto now = Clock::now();
        if (listenerPaused && now >= listenerResumeAt)
            watchListener(true);
        expired.clear();
        wheel.advance(now, expired);
        for (Conn *c : expired) {
            if (c->shed && !c->closing) {
                // Still undecided at the grace deadline: refuse now
                // (binary unless a method prefix has arrived).
                refuseShed(c);
                flushOut(c);
                continue;
            }
            if (!c->shed)
                QDEL_OBS(obs::serveMetrics().reapedConnections.inc());
            closeConn(c);
        }
    }
    while (!conns.empty())
        closeConn(*conns.begin());
    QDEL_OBS(obs::serveMetrics().reactorLoops.add(-1.0));
}

int
Loop::pollTimeoutMs() const
{
    if (!listenerPaused)
        return wheel.pollTimeoutMs();
    const auto left = std::chrono::ceil<std::chrono::milliseconds>(
        listenerResumeAt - Clock::now());
    return static_cast<int>(
        std::clamp<int64_t>(left.count(), 0, wheel.pollTimeoutMs()));
}

/** Add the listener to (or drop it from) this loop's epoll set. */
bool
Loop::watchListener(bool on)
{
    struct epoll_event event;
    std::memset(&event, 0, sizeof(event));
    // Level-triggered and exclusive: one pending connection wakes one
    // loop, not all of them, and stays readable until accepted.
    event.events = EPOLLIN | EPOLLEXCLUSIVE;
    event.data.ptr = this;  // this marks the listener.
    listenerPaused = !on;
    return ::epoll_ctl(epollFd, on ? EPOLL_CTL_ADD : EPOLL_CTL_DEL,
                       reactor->listenFd, &event) == 0;
}

void
Loop::acceptReady()
{
    for (;;) {
        int fd = ::accept4(reactor->listenFd, nullptr, nullptr,
                           SOCK_NONBLOCK | SOCK_CLOEXEC);
        if (fd >= 0) {
            const auto fault =
                netfault::detail::onOp(netfault::detail::Op::Accept, 0);
            if (fault.fail) {
                ::close(fd);
                fd = -1;
                errno = ECONNABORTED;
            }
        }
        if (fd < 0) {
            if (errno == EINTR)
                continue;
            if (errno == EAGAIN || errno == EWOULDBLOCK)
                return;
            // EMFILE/ENFILE/ENOBUFS/ECONNABORTED and friends are
            // transient: count, and stop watching the listener for a
            // capped exponential backoff. The loop keeps serving its
            // connections meanwhile; run() re-adds the listener.
            QDEL_OBS(obs::serveMetrics().acceptErrors.inc());
            watchListener(false);
            listenerResumeAt = Clock::now() + ms(acceptBackoffMs);
            acceptBackoffMs = std::min(acceptBackoffMs * 2,
                                       kAcceptBackoffCapMs);
            return;
        }
        acceptBackoffMs = 1;
        admit(fd);
    }
}

void
Loop::admit(int fd)
{
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    Loop *target = reactor->place();
    if (target == this) {
        adopt(fd, /*shed=*/false);
        return;
    }
    if (target != nullptr) {
        {
            std::lock_guard<std::mutex> lock(target->inboxMutex);
            target->inbox.push_back(fd);
        }
        target->wake();
        return;
    }
    QDEL_OBS(obs::serveMetrics().shedTotal.inc());
    if (reactor->shedInFlight.fetch_add(1, std::memory_order_relaxed) >=
        kMaxShedInFlight) {
        // The shed path itself is saturated: refuse with a bare close.
        reactor->shedInFlight.fetch_sub(1, std::memory_order_relaxed);
        ::close(fd);
        return;
    }
    adopt(fd, /*shed=*/true);
}

void
Loop::adopt(int fd, bool shed)
{
    Conn *c = new Conn();
    c->fd = fd;
    c->shed = shed;
    c->deadline =
        Clock::now() + ms(shed ? kShedGraceMs : options->idleTimeoutMs);
    if (!shed)
        QDEL_OBS(obs::serveMetrics().connections.add(1.0));

    struct epoll_event event;
    std::memset(&event, 0, sizeof(event));
    // EPOLLOUT is registered up front: with edge triggering the
    // spurious initial writability costs one no-op, and no MOD
    // syscalls are ever needed afterwards.
    event.events = EPOLLIN | EPOLLOUT | EPOLLET | EPOLLRDHUP;
    event.data.ptr = c;
    if (::epoll_ctl(epollFd, EPOLL_CTL_ADD, fd, &event) != 0) {
        closeConn(c);
        return;
    }
    c->publishView();
    {
        std::lock_guard<std::mutex> lock(connsMutex);
        conns.insert(c);
    }
    wheel.arm(c, c->deadline);
}

void
Loop::adoptInbox()
{
    std::vector<int> pending;
    {
        std::lock_guard<std::mutex> lock(inboxMutex);
        pending.swap(inbox);
    }
    for (int fd : pending)
        adopt(fd, /*shed=*/false);
}

/**
 * Answer a shed connection in the protocol its first bytes reveal —
 * HTTP 503 + Retry-After, else (including a client that stayed silent
 * through the grace window) the binary Status::Shed frame — and close
 * it once the refusal is flushed or a second grace window passes.
 */
void
Loop::refuseShed(Conn *c)
{
    if (looksLikeHttp(c->in.view().substr(0, 4))) {
        appendHttpResponse(
            c->out, 503, "text/plain",
            "overloaded: connection slots exhausted\n",
            /*keepAlive=*/false,
            {{"Retry-After", std::to_string(kShedRetryAfterSeconds)}});
    } else {
        appendShedFrame(c->out, "connection slots exhausted",
                        kShedRetryAfterSeconds);
    }
    c->closing = true;
    c->deadline = Clock::now() + ms(kShedGraceMs);
    wheel.arm(c, c->deadline);
}

void
Loop::closeConn(Conn *c)
{
    wheel.disarm(c);
    if (c->awaiting)
        awaiting.erase(std::find(awaiting.begin(), awaiting.end(), c));
    {
        // Unpublish before freeing: a /debug/conns walk on another
        // thread only ever sees members of this set.
        std::lock_guard<std::mutex> lock(connsMutex);
        conns.erase(c);
    }
    ::close(c->fd);
    if (c->shed) {
        reactor->shedInFlight.fetch_sub(1, std::memory_order_relaxed);
    } else {
        connCount.fetch_sub(1, std::memory_order_relaxed);
        QDEL_OBS(obs::serveMetrics().connections.add(-1.0));
    }
    delete c;
}

void
Loop::onReadable(Conn *c)
{
    size_t frames = 0;
    bool fatal = false;
    for (;;) {
        size_t want = ConnBuffer::kDefaultCapacity;
        const auto fault =
            netfault::detail::onOp(netfault::detail::Op::Recv, want);
        if (fault.stall) {
            // A silent peer would hit the io deadline; the injected
            // stall reports the same reap immediately.
            QDEL_OBS(obs::serveMetrics().reapedConnections.inc());
            closeConn(c);
            return;
        }
        if (fault.fail) {
            closeConn(c);
            return;
        }
        if (fault.clampBytes > 0)
            want = std::min(want, fault.clampBytes);

        char *p = c->in.writePtr(want);
        const ssize_t n = ::recv(c->fd, p, want, 0);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            if (errno == EAGAIN || errno == EWOULDBLOCK)
                break;
            fatal = true;
            break;
        }
        if (n == 0) {
            // EOF: flush whatever the already-processed frames
            // produced (or a shed client's refusal), then close.
            if (c->shed && !c->closing)
                refuseShed(c);
            c->closing = true;
            break;
        }
        c->in.commit(static_cast<size_t>(n));
        processInput(c, &frames);
        if (c->closing)
            break;
        // recv() returned less than asked: the kernel buffer is
        // drained, no further edge will be missed.
        if (static_cast<size_t>(n) < want)
            break;
    }
    if (fatal) {
        closeConn(c);
        return;
    }
    if (frames > 0) {
        QDEL_OBS(obs::serveMetrics().batchFrames.observe(
            static_cast<double>(frames)));
    }
    if (!c->awaitShards.empty()) {
        // Event replies leave only after commitStaged() synced them.
        if (!c->awaiting) {
            c->awaiting = true;
            awaiting.push_back(c);
        }
        return;
    }
    finishBatch(c, frames > 0);
}

/** Flush @p c's replies, release an oversized receive buffer, and
 *  re-arm its deadline. */
void
Loop::finishBatch(Conn *c, bool serviced)
{
    if (!flushOut(c))
        return;
    if (c->in.shrinkIfOversized())
        QDEL_OBS(obs::serveMetrics().bufferShrinks.inc());
    rearmDeadline(c, serviced);
}

/** Record that @p c holds a reply to an event staged into @p shard. */
void
Loop::noteStaged(Conn *c, size_t shard)
{
    const auto s = static_cast<uint32_t>(shard);
    if (shardState[s] == 0) {
        shardState[s] = 1;
        dirtyShards.push_back(s);
    }
    if (std::find(c->awaitShards.begin(), c->awaitShards.end(), s) ==
        c->awaitShards.end())
        c->awaitShards.push_back(s);
}

/**
 * The end-of-wake group commit: one BoundService::commit per shard
 * staged into during the wake, then the flush of every connection
 * waiting on them. A connection waiting on a shard whose commit failed
 * is closed with its replies unsent — none of them may claim a
 * durability the disk did not confirm.
 */
void
Loop::commitStaged()
{
    constexpr uint8_t kCommitFailed = 2;
    for (uint32_t s : dirtyShards) {
        QDEL_OBS_SPAN(span, obs::serveMetrics().requestSeconds,
                      obs::EventType::Span, "serve_commit");
        SlowLogGuard slow(this, "commit");
        if (!service->commit(s).ok())
            shardState[s] = kCommitFailed;
    }
    for (Conn *c : awaiting) {
        c->awaiting = false;
        const bool failed =
            std::any_of(c->awaitShards.begin(), c->awaitShards.end(),
                        [&](uint32_t s) {
                            return shardState[s] == kCommitFailed;
                        });
        c->awaitShards.clear();
        if (failed)
            closeConn(c);
        else
            finishBatch(c, true);
    }
    awaiting.clear();
    for (uint32_t s : dirtyShards)
        shardState[s] = 0;
    dirtyShards.clear();
}

bool
Loop::onWritable(Conn *c)
{
    if (!c->wantWrite)
        return true;
    c->wantWrite = false;
    if (!flushOut(c))
        return false;
    rearmDeadline(c, false);
    return true;
}

bool
Loop::flushOut(Conn *c)
{
    if (c->outSent == c->out.size()) {
        c->out.clear();
        c->outSent = 0;
        if (c->closing) {
            closeConn(c);
            return false;
        }
        return true;
    }
    const auto fault = netfault::detail::onOp(
        netfault::detail::Op::Send, c->out.size() - c->outSent);
    bool fail_after = fault.fail;
    size_t limit = c->out.size();
    if (fault.partial) {
        limit = std::min(c->out.size(), c->outSent + fault.partialBytes);
        fail_after = true;
    }
    while (c->outSent < limit) {
        const ssize_t n = ::send(c->fd, c->out.data() + c->outSent,
                                 limit - c->outSent, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            if ((errno == EAGAIN || errno == EWOULDBLOCK) &&
                !fail_after) {
                c->wantWrite = true;
                return true;
            }
            closeConn(c);
            return false;
        }
        c->outSent += static_cast<size_t>(n);
    }
    if (fail_after) {
        closeConn(c);
        return false;
    }
    c->out.clear();
    c->outSent = 0;
    if (c->out.capacity() > kOutScratchShrinkBytes) {
        std::string fresh;
        c->out.swap(fresh);
        QDEL_OBS(obs::serveMetrics().bufferShrinks.inc());
    }
    if (c->closing) {
        closeConn(c);
        return false;
    }
    return true;
}

void
Loop::rearmDeadline(Conn *c, bool serviced)
{
    if (c->shed)
        return;  // Only ever on its grace deadline.
    const bool busy = !c->in.empty() || c->outSent < c->out.size();
    const auto now = Clock::now();
    if (!busy) {
        c->idleDeadline = true;
        c->deadline = now + ms(options->idleTimeoutMs);
    } else if (serviced || c->idleDeadline) {
        // A fresh request (or the first bytes after idling) gets a
        // full io budget.
        c->idleDeadline = false;
        c->deadline = now + ms(options->ioTimeoutMs);
    } else {
        // Sticky io deadline: dribbled bytes never extend the budget
        // (but the introspection mirror still tracks buffer levels).
        c->publishView();
        return;
    }
    wheel.arm(c, c->deadline);
    c->publishView();
}

void
Loop::processInput(Conn *c, size_t *frames)
{
    if (c->shed) {
        // The same sniff decides the refusal's protocol.
        if (!c->closing && c->in.size() >= 4)
            refuseShed(c);
        return;
    }
    if (c->proto == Conn::Proto::Sniff) {
        // A binary frame's 4th byte is always NUL (payload lengths
        // are < 2^24); an HTTP method line never has one there.
        if (c->in.size() < 4)
            return;
        c->proto = looksLikeHttp(c->in.view().substr(0, 4))
                       ? Conn::Proto::Http
                       : Conn::Proto::Binary;
    }
    if (c->proto == Conn::Proto::Binary)
        processBinary(c, frames);
    else
        processHttp(c, frames);
}

void
Loop::processBinary(Conn *c, size_t *frames)
{
    for (;;) {
        std::string_view payload;
        size_t consumed = 0;
        auto framed = unframe(c->in.view(), &payload, &consumed);
        if (!framed.ok()) {
            flushQueryBatch(c);
            QDEL_OBS(obs::serveMetrics().badFrames.inc());
            appendErrorFrame(c->out, framed.error().reason);
            c->closing = true;  // Cannot resync after a corrupt length.
            return;
        }
        if (!framed.value())
            break;
        ++*frames;
        handleFramePayload(c, payload);
        c->in.consume(consumed);
    }
    flushQueryBatch(c);
}

BoundQuery &
Loop::nextQuerySlot()
{
    if (queryCount == queries.size())
        queries.emplace_back();
    return queries[queryCount];
}

void
Loop::handleFramePayload(Conn *c, std::string_view payload)
{
    QDEL_OBS(obs::serveMetrics().requests.inc());
    if (payload.empty()) {
        flushQueryBatch(c);
        QDEL_OBS(obs::serveMetrics().badFrames.inc());
        appendErrorFrame(c->out, "empty request frame");
        return;
    }
    const auto opcode = static_cast<Opcode>(
        static_cast<uint8_t>(payload[0]));
    const std::string_view body = payload.substr(1);

    if (opcode == Opcode::Query) {
        // Hot path: batch consecutive queries; answers are appended
        // (in order) when the batch flushes.
        BoundQuery &slot = nextQuerySlot();
        if (auto decoded = decodeQueryInto(body, &slot); !decoded.ok()) {
            flushQueryBatch(c);
            QDEL_OBS(obs::serveMetrics().badFrames.inc());
            appendErrorFrame(c->out, decoded.error().reason);
            return;
        }
        ++queryCount;
        return;
    }

    // Any non-query frame is an ordering barrier for the batch.
    flushQueryBatch(c);
    QDEL_OBS_SPAN(span, obs::serveMetrics().requestSeconds,
                  obs::EventType::Span, "serve_request");
    SlowLogGuard slow(this, "frame");
    switch (opcode) {
    case Opcode::Event: {
        auto event = decodeEvent(body);
        if (!event.ok()) {
            QDEL_OBS(obs::serveMetrics().badFrames.inc());
            appendErrorFrame(c->out, event.error().reason);
            return;
        }
        // A traced ingest stamps the reactor span, so the drained
        // event stream shows reactor -> service -> registry hops all
        // carrying the same id.
        QDEL_OBS(span.setTrace(event.value().traceId));
        slow.trace = event.value().traceId;
        size_t shard = 0;
        auto outcome = service->stage(event.value(), &shard);
        if (!outcome.ok()) {
            appendErrorFrame(c->out, outcome.error().reason);
            return;
        }
        noteStaged(c, shard);
        const ApplyOutcome &applied = outcome.value();
        if (applied.shed) {
            appendShedFrame(c->out, "shard pending bound exceeded",
                            applied.retryAfterSeconds);
            return;
        }
        appendEventAckFrame(c->out, applied.applied, applied.deduped,
                            applied.rejectReason);
        return;
    }
    case Opcode::Query:
        return;  // Handled above.
    case Opcode::Ping:
        appendPingFrame(c->out);
        return;
    case Opcode::Checkpoint: {
        if (auto ok = service->checkpointAll(); !ok.ok()) {
            appendErrorFrame(c->out, ok.error().reason);
            return;
        }
        appendOkFrame(c->out, std::string_view());
        return;
    }
    case Opcode::Stats:
        appendOkFrame(c->out, encodeStats(service->stats()));
        return;
    }
    QDEL_OBS(obs::serveMetrics().badFrames.inc());
    appendErrorFrame(c->out,
                     "unknown opcode " +
                         std::to_string(static_cast<uint8_t>(payload[0])));
}

void
Loop::flushQueryBatch(Conn *c)
{
    if (queryCount == 0)
        return;
    QDEL_OBS_SPAN(span, obs::serveMetrics().requestSeconds,
                  obs::EventType::Span, "serve_request");
    QDEL_OBS_SPAN(query_span, obs::serveMetrics().querySeconds,
                  obs::EventType::Span, "serve_query");
    SlowLogGuard slow(this, "query_batch");
    if (slow.startNanos >= 0) {
        // Attribute a slow batch to its first traced query (if any).
        for (size_t i = 0; i < queryCount && slow.trace == 0; ++i)
            slow.trace = queries[i].traceId;
    }
    if (answers.size() < queryCount)
        answers.resize(queryCount);
    service->queryBatch(queries.data(), queryCount, answers.data(),
                              queryScratch);
    // Traced queries get an instant mark each: the read path is
    // lock-free, so the reactor hop is the whole story for a query.
    QDEL_OBS({
        for (size_t i = 0; i < queryCount; ++i) {
            if (queries[i].traceId != 0) {
                obs::events().emit(obs::EventType::Span,
                                   answers[i].known ? 1.0 : 0.0,
                                   static_cast<double>(i), "serve_query",
                                   queries[i].traceId);
            }
        }
    });
    for (size_t i = 0; i < queryCount; ++i)
        appendAnswerFrame(c->out, answers[i]);
    queryCount = 0;
}

void
Loop::processHttp(Conn *c, size_t *frames)
{
    // A request that cannot be framed is refused and the connection
    // closed: the byte stream cannot be resynchronized.
    const auto refuse = [c](int status, const std::string &reason) {
        appendHttpResponse(c->out, status, "text/plain", reason + "\n",
                           /*keepAlive=*/false);
        c->closing = true;
    };
    for (;;) {
        const std::string_view data = c->in.view();
        size_t head_end = data.find("\r\n\r\n");
        size_t separator = 4;
        if (head_end == std::string_view::npos) {
            head_end = data.find("\n\n");
            separator = 2;
        }
        const bool complete = head_end != std::string_view::npos;
        if (complete)
            head_end += separator;
        if ((complete ? head_end : data.size()) > kMaxHttpHeadBytes) {
            refuse(431, "request head exceeds " +
                            std::to_string(kMaxHttpHeadBytes) + " bytes");
            return;
        }
        if (!complete)
            return;  // Need more head bytes.
        auto parsed = parseRequestHead(data.substr(0, head_end));
        if (!parsed.ok()) {
            QDEL_OBS(obs::serveMetrics().badFrames.inc());
            // Chunked bodies have no declared length; oversized header
            // blocks get the dedicated status, the rest is a 400.
            int status = 400;
            if (parsed.error().field == "http.transferEncoding")
                status = 411;
            else if (parsed.error().field == "http.headerCount")
                status = 431;
            refuse(status, parsed.error().reason);
            return;
        }
        HttpRequest request = std::move(parsed).value();
        if (request.contentLength > kMaxFrameBytes) {
            refuse(413, "request body exceeds " +
                            std::to_string(kMaxFrameBytes) + " bytes");
            return;
        }
        if (data.size() - head_end < request.contentLength)
            return;  // Need the body; head is re-parsed next pass.
        ++*frames;
        handleHttp(c, request);
        c->in.consume(head_end + request.contentLength);
        if (!request.keepAlive) {
            c->closing = true;
            return;
        }
        // Keep-alive: loop in case the client pipelined more requests.
    }
}

/** Answer one HTTP request through routeHttp(). A reply to a staged
 *  event waits for its shard's commit, like a binary event ack. */
void
Loop::handleHttp(Conn *c, const HttpRequest &request)
{
    QDEL_OBS({
        obs::serveMetrics().requests.inc();
        obs::serveMetrics().httpRequests.inc();
    });
    QDEL_OBS_SPAN(span, obs::serveMetrics().requestSeconds,
                  obs::EventType::Span, "serve_http");
    QDEL_OBS(span.setTrace(request.traceId));
    SlowLogGuard slow(this, "http");
    slow.trace = request.traceId;
    const HttpReply reply = routeHttp(
        *service, request, [this] { return reactor->connViews(); });
    appendHttpResponse(c->out, reply.status, reply.contentType, reply.body,
                       request.keepAlive, reply.headers);
    if (reply.stagedShard)
        noteStaged(c, *reply.stagedShard);
}

void
Loop::maybeLogSlow(const char *what, int64_t startNanos, uint64_t trace)
{
    const int64_t now = obs::nowNanos();
    const int64_t elapsed = now - startNanos;
    if (elapsed < options->slowRequestUs * 1000)
        return;
    QDEL_OBS(obs::serveMetrics().slowRequests.inc());
    // At most one line per 100ms per loop: the log exists to diagnose
    // slowness, it must never add any.
    if (now - lastSlowLogNanos < 100'000'000)
        return;
    lastSlowLogNanos = now;
    char suffix[32] = "";
    if (trace != 0)
        std::snprintf(suffix, sizeof(suffix), " trace=%016" PRIx64, trace);
    warn("slow ", what, " request: ", elapsed / 1000, "us (threshold ",
         options->slowRequestUs, "us)", suffix);
}

} // namespace

void
BoundServer::Impl::stop()
{
    bool expected = false;
    if (!stopping.compare_exchange_strong(expected, true))
        return;
    // Each loop observes stopping on its next wakeup, closes its
    // connections, and exits.
    for (auto &loop : loops) {
        loop->wake();
        if (loop->thread.joinable())
            loop->thread.join();
    }
    // Every loop is gone: nothing reads the listener or pushes to an
    // inbox any more, so both can be closed without a race.
    for (auto &loop : loops) {
        for (int fd : loop->inbox)
            ::close(fd);
        loop->inbox.clear();
    }
    if (listenFd >= 0)
        ::close(listenFd);
    listenFd = -1;
}

} // namespace serve
} // namespace qdel
