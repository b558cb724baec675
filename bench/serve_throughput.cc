/**
 * @file
 * Serve-path throughput benchmarks (google-benchmark): the numbers
 * behind the online bound service.
 *
 * Most rows measure a populated in-process registry (the same objects
 * the daemon serves from — the socket excluded so the numbers isolate
 * the prediction path from kernel networking):
 *
 *  - bound queries: the lock-free snapshot-read path, single- and
 *    multi-threaded, with a queries_per_sec rate counter (the PR
 *    target is >= 1M queries/sec on one thread) and a sampled
 *    latency distribution reported as p50/p99 nanosecond counters;
 *  - event ingest: apply() through the serialized per-shard writer,
 *    events_per_sec, including the periodic refit + republish cost;
 *  - wire codec: encode -> frame -> unframe -> decode round-trips for
 *    the query and event message types.
 *
 * Three rows then put the kernel back in, against a real BoundServer on
 * loopback: BM_ServeNetworkQps (pipelined clients through the epoll
 * reactor — the >= 1M queries/sec *network* target),
 * BM_ServeNetworkIngestDurable (pipelined events into a WAL-backed
 * service: the group commit's fsyncs per event and ack latency) and
 * BM_ServeOverloadHealthyLatency (a healthy client among stalled
 * neighbours, plus the shed path's refusal latency).
 */

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "obs/metrics.hh"
#include "serve/bound_registry.hh"
#include "serve/server.hh"
#include "serve/service.hh"
#include "serve/wire.hh"

namespace {

using namespace qdel;

/** Keys the populated registry serves; queries cycle through them. */
constexpr size_t kMachines = 4;
constexpr size_t kQueues = 4;
constexpr int kProcChoices[] = {1, 8, 64, 512};

std::string
machineName(size_t i)
{
    return "machine" + std::to_string(i);
}

std::string
queueName(size_t i)
{
    return "queue" + std::to_string(i);
}

/**
 * A registry with every (machine, queue, bucket) combination trained
 * past finalization, built once and shared by all benchmarks (queries
 * never mutate it).
 */
serve::BoundRegistry &
populatedRegistry()
{
    static serve::BoundRegistry *registry = [] {
        serve::BoundRegistry::Options options;
        options.shards = 8;
        options.trainJobs = 100;
        options.epochSeconds = 300.0;
        auto *r = new serve::BoundRegistry(options);
        uint64_t job_id = 0;
        for (size_t m = 0; m < kMachines; ++m) {
            for (size_t q = 0; q < kQueues; ++q) {
                for (int procs : kProcChoices) {
                    for (size_t i = 0; i < 150; ++i) {
                        serve::JobEvent submit;
                        submit.kind = serve::EventKind::Submit;
                        submit.jobId = ++job_id;
                        submit.time = 0.0;
                        submit.machine = machineName(m);
                        submit.queue = queueName(q);
                        submit.procs = procs;
                        r->apply(submit);
                        serve::JobEvent start = submit;
                        start.kind = serve::EventKind::Start;
                        start.time =
                            30.0 + static_cast<double>((i * 37) % 900);
                        r->apply(start);
                    }
                }
            }
        }
        return r;
    }();
    return *registry;
}

serve::BoundQuery
queryFor(size_t i)
{
    serve::BoundQuery query;
    query.machine = machineName(i % kMachines);
    query.queue = queueName((i / kMachines) % kQueues);
    query.procs = kProcChoices[(i / (kMachines * kQueues)) % 4];
    query.quantile = serve::kGridQuantiles[i % serve::kGridCount];
    return query;
}

/** Pure query throughput over the shared registry. */
void
BM_ServeQueryThroughput(benchmark::State &state)
{
    auto &registry = populatedRegistry();
    // Pre-built queries so string construction is outside the loop —
    // the daemon reuses decoded request objects the same way.
    std::vector<serve::BoundQuery> queries;
    for (size_t i = 0; i < 1024; ++i)
        queries.push_back(queryFor(i));
    size_t i = static_cast<size_t>(state.thread_index()) * 131;
    for (auto _ : state) {
        const serve::BoundAnswer answer =
            registry.query(queries[i++ & 1023]);
        benchmark::DoNotOptimize(answer.upper);
    }
    state.counters["queries_per_sec"] = benchmark::Counter(
        static_cast<double>(state.iterations()),
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ServeQueryThroughput)->Threads(1)->Threads(4)->Threads(8);

/**
 * Per-query latency distribution: every iteration is timed
 * individually (clock overhead is part of the measured cost, so the
 * rate here underestimates BM_ServeQueryThroughput — the p50/p99
 * counters are the point of this benchmark).
 */
void
BM_ServeQueryLatency(benchmark::State &state)
{
    auto &registry = populatedRegistry();
    std::vector<serve::BoundQuery> queries;
    for (size_t i = 0; i < 1024; ++i)
        queries.push_back(queryFor(i));
    std::vector<double> samples;
    samples.reserve(1 << 20);
    size_t i = 0;
    for (auto _ : state) {
        const auto begin = std::chrono::steady_clock::now();
        const serve::BoundAnswer answer =
            registry.query(queries[i++ & 1023]);
        const auto end = std::chrono::steady_clock::now();
        benchmark::DoNotOptimize(answer.upper);
        samples.push_back(
            std::chrono::duration<double, std::nano>(end - begin)
                .count());
    }
    std::sort(samples.begin(), samples.end());
    const auto at = [&](double p) {
        return samples.empty()
                   ? 0.0
                   : samples[std::min(
                         samples.size() - 1,
                         static_cast<size_t>(
                             p * static_cast<double>(samples.size())))];
    };
    state.counters["p50_ns"] = at(0.50);
    state.counters["p99_ns"] = at(0.99);
    state.counters["queries_per_sec"] = benchmark::Counter(
        static_cast<double>(state.iterations()),
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ServeQueryLatency);

/**
 * Ingest throughput: WAL-less apply() through the shard writers. Jobs
 * are submitted a minute apart, so the key crosses a 300 s epoch every
 * five submits and the row keeps paying the refit + republish cost
 * (with every submit at t = 0 the key would stop refitting after its
 * first few epochs).
 */
void
BM_ServeIngestThroughput(benchmark::State &state)
{
    serve::BoundRegistry::Options options;
    options.shards = 8;
    options.trainJobs = 100;
    options.epochSeconds = 300.0;
    serve::BoundRegistry registry(options);
    uint64_t job_id = 0;
    for (auto _ : state) {
        serve::JobEvent submit;
        submit.kind = serve::EventKind::Submit;
        submit.jobId = ++job_id;
        submit.time = 60.0 * static_cast<double>(job_id);
        submit.machine = "machine0";
        submit.queue = "queue0";
        submit.procs = 8;
        benchmark::DoNotOptimize(registry.apply(submit).applied);
        serve::JobEvent start = submit;
        start.kind = serve::EventKind::Start;
        start.time =
            submit.time + 30.0 + static_cast<double>((job_id * 37) % 900);
        benchmark::DoNotOptimize(registry.apply(start).applied);
    }
    state.counters["events_per_sec"] = benchmark::Counter(
        static_cast<double>(state.iterations()) * 2.0,
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ServeIngestThroughput);

/** Wire codec round-trip for the two hot message types. */
void
BM_ServeWireQueryRoundTrip(benchmark::State &state)
{
    const serve::BoundQuery query = queryFor(7);
    for (auto _ : state) {
        const std::string framed = serve::frameRequest(
            serve::Opcode::Query, serve::encodeQuery(query));
        std::string_view payload;
        size_t consumed = 0;
        benchmark::DoNotOptimize(
            serve::unframe(framed, &payload, &consumed).value());
        auto decoded = serve::decodeQuery(payload.substr(1));
        benchmark::DoNotOptimize(decoded.value().quantile);
    }
    state.counters["messages_per_sec"] = benchmark::Counter(
        static_cast<double>(state.iterations()),
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ServeWireQueryRoundTrip);

void
BM_ServeWireEventRoundTrip(benchmark::State &state)
{
    serve::JobEvent event;
    event.kind = serve::EventKind::Start;
    event.jobId = 42;
    event.time = 1234.5;
    event.machine = "machine0";
    event.queue = "queue0";
    event.procs = 64;
    for (auto _ : state) {
        const std::string framed = serve::frameRequest(
            serve::Opcode::Event, serve::encodeEvent(event));
        std::string_view payload;
        size_t consumed = 0;
        benchmark::DoNotOptimize(
            serve::unframe(framed, &payload, &consumed).value());
        auto decoded = serve::decodeEvent(payload.substr(1));
        benchmark::DoNotOptimize(decoded.value().time);
    }
    state.counters["messages_per_sec"] = benchmark::Counter(
        static_cast<double>(state.iterations()),
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ServeWireEventRoundTrip);

// --- overload scenario: N stalled clients + a healthy client --------

int
connectLoopback(int port)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return -1;
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    struct sockaddr_in address;
    std::memset(&address, 0, sizeof(address));
    address.sin_family = AF_INET;
    address.sin_port = htons(static_cast<uint16_t>(port));
    ::inet_pton(AF_INET, "127.0.0.1", &address.sin_addr);
    if (::connect(fd, reinterpret_cast<struct sockaddr *>(&address),
                  sizeof(address)) != 0) {
        ::close(fd);
        return -1;
    }
    return fd;
}

bool
sendAll(int fd, std::string_view bytes)
{
    size_t sent = 0;
    while (sent < bytes.size()) {
        const ssize_t n = ::send(fd, bytes.data() + sent,
                                 bytes.size() - sent, MSG_NOSIGNAL);
        if (n <= 0)
            return false;
        sent += static_cast<size_t>(n);
    }
    return true;
}

/** Read one response frame; false on EOF/error. */
bool
readFrame(int fd, std::string *payload)
{
    std::string header;
    char chunk[4096];
    while (header.size() < 4) {
        const ssize_t n =
            ::recv(fd, chunk, 4 - header.size(), 0);
        if (n <= 0)
            return false;
        header.append(chunk, static_cast<size_t>(n));
    }
    uint32_t length = 0;
    std::memcpy(&length, header.data(), 4);
    if (length > serve::kMaxFrameBytes)
        return false;
    payload->clear();
    while (payload->size() < length) {
        const size_t want =
            std::min(static_cast<size_t>(length) - payload->size(),
                     sizeof(chunk));
        const ssize_t n = ::recv(fd, chunk, want, 0);
        if (n <= 0)
            return false;
        payload->append(chunk, static_cast<size_t>(n));
    }
    return true;
}

/**
 * Shared loopback server for the network-throughput rows: a trained
 * ephemeral service behind a real BoundServer, built once and reused
 * by every thread/arg variant (leaked — process-lifetime statics).
 * Observability is enabled so the server-side batch-size histogram
 * (qdel_serve_batch_frames) can be reported alongside the rates.
 */
serve::BoundServer &
networkServer()
{
    static serve::BoundServer *server = [] {
        obs::setEnabled(true);
        serve::ServiceConfig config;
        config.registry.shards = 8;
        config.registry.trainJobs = 100;
        config.registry.epochSeconds = 300.0;
        auto opened = serve::BoundService::open(config);
        auto *service =
            new std::unique_ptr<serve::BoundService>(
                std::move(opened).value());
        uint64_t job_id = 0;
        for (size_t m = 0; m < kMachines; ++m) {
            for (size_t q = 0; q < kQueues; ++q) {
                for (int procs : kProcChoices) {
                    for (size_t i = 0; i < 150; ++i) {
                        serve::JobEvent submit;
                        submit.kind = serve::EventKind::Submit;
                        submit.jobId = ++job_id;
                        submit.time = 0.0;
                        submit.machine = machineName(m);
                        submit.queue = queueName(q);
                        submit.procs = procs;
                        (void)(*service)->ingest(submit);
                        serve::JobEvent start = submit;
                        start.kind = serve::EventKind::Start;
                        start.time =
                            30.0 + static_cast<double>((i * 37) % 900);
                        (void)(*service)->ingest(start);
                    }
                }
            }
        }
        serve::ServerOptions options;
        options.maxConnections = 64;
        auto started =
            serve::BoundServer::start(**service, options);
        return started.value().release();
    }();
    return *server;
}

/** (sum, count) of a histogram in the process registry right now. */
std::pair<double, uint64_t>
histogramNow(const char *name)
{
    for (const auto &histogram : obs::registry().snapshot().histograms) {
        if (histogram.name == name)
            return {histogram.sum, histogram.count};
    }
    return {0.0, 0};
}

/**
 * The headline network row: pipelined clients against a real
 * BoundServer over loopback. Each thread keeps one connection and
 * stop-and-waits batches of state.range(0) pre-encoded query frames —
 * the server drains the whole batch off one epoll wakeup, answers
 * through the batched registry path, and flushes one response burst,
 * so the syscall cost amortizes across the batch. queries_per_sec
 * aggregates across threads; rtt_p50/p99/p999_us are per-batch
 * round-trip latencies as the client observes them (divide by the
 * batch depth for amortized per-query cost); server_batch_mean is the
 * server-side frames-per-wakeup histogram mean over the run.
 */
void
runNetworkQps(benchmark::State &state, bool traced)
{
    const size_t depth = static_cast<size_t>(state.range(0));
    auto &server = networkServer();
    const int fd = connectLoopback(server.port());
    if (fd < 0) {
        state.SkipWithError("connect failed");
        return;
    }
    std::string batch;
    for (size_t i = 0; i < depth; ++i) {
        serve::BoundQuery query = queryFor(
            i * 7 + static_cast<size_t>(state.thread_index()));
        // The traced variant pays the v3 tail decode plus the
        // per-query trace instant into the event ring — the cost the
        // tracing budget (bench_compare --alias gate in CI) bounds.
        if (traced)
            query.traceId =
                (static_cast<uint64_t>(state.thread_index() + 1) << 32) |
                (i + 1);
        batch += serve::frameRequest(serve::Opcode::Query,
                                     serve::encodeQuery(query));
    }

    const auto histogram_before = histogramNow("qdel_serve_batch_frames");
    std::vector<double> rtts;
    rtts.reserve(1 << 16);
    std::string buffer;
    buffer.reserve(depth * 128);
    char chunk[64 * 1024];
    bool failed = false;
    for (auto _ : state) {
        const auto begin = std::chrono::steady_clock::now();
        if (!sendAll(fd, batch)) {
            failed = true;
            break;
        }
        buffer.clear();
        size_t got = 0;
        size_t off = 0;
        while (got < depth && !failed) {
            while (buffer.size() - off >= 4) {
                uint32_t length = 0;
                std::memcpy(&length, buffer.data() + off, 4);
                if (length > serve::kMaxFrameBytes) {
                    failed = true;
                    break;
                }
                if (buffer.size() - off < 4 + length)
                    break;
                if (buffer[off + 4] !=
                    static_cast<char>(serve::Status::Ok)) {
                    failed = true;
                    break;
                }
                off += 4 + length;
                ++got;
            }
            if (failed || got >= depth)
                break;
            const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
            if (n <= 0) {
                failed = true;
                break;
            }
            buffer.append(chunk, static_cast<size_t>(n));
        }
        if (failed)
            break;
        const auto end = std::chrono::steady_clock::now();
        rtts.push_back(
            std::chrono::duration<double, std::micro>(end - begin)
                .count());
    }
    ::close(fd);
    if (failed) {
        state.SkipWithError("pipelined round trip failed");
        return;
    }
    const auto histogram_after = histogramNow("qdel_serve_batch_frames");

    std::sort(rtts.begin(), rtts.end());
    const auto at = [&](double p) {
        return rtts.empty()
                   ? 0.0
                   : rtts[std::min(
                         rtts.size() - 1,
                         static_cast<size_t>(
                             p * static_cast<double>(rtts.size())))];
    };
    state.counters["rtt_p50_us"] =
        benchmark::Counter(at(0.50), benchmark::Counter::kAvgThreads);
    state.counters["rtt_p99_us"] =
        benchmark::Counter(at(0.99), benchmark::Counter::kAvgThreads);
    state.counters["rtt_p999_us"] =
        benchmark::Counter(at(0.999), benchmark::Counter::kAvgThreads);
    state.counters["batch_depth"] = benchmark::Counter(
        static_cast<double>(depth), benchmark::Counter::kAvgThreads);
    const uint64_t batches =
        histogram_after.second - histogram_before.second;
    state.counters["server_batch_mean"] = benchmark::Counter(
        batches == 0 ? 0.0
                     : (histogram_after.first - histogram_before.first) /
                           static_cast<double>(batches),
        benchmark::Counter::kAvgThreads);
    state.counters["queries_per_sec"] = benchmark::Counter(
        static_cast<double>(state.iterations()) *
            static_cast<double>(depth),
        benchmark::Counter::kIsRate);
}
void
BM_ServeNetworkQps(benchmark::State &state)
{
    runNetworkQps(state, false);
}
BENCHMARK(BM_ServeNetworkQps)
    ->Arg(16)
    ->Arg(64)
    ->Arg(256)
    ->UseRealTime();
BENCHMARK(BM_ServeNetworkQps)->Arg(64)->Threads(4)->UseRealTime();

/** Same batches, every query carrying a v3 trace id; compare against
 *  BM_ServeNetworkQps via bench_compare --alias to bound the tracing
 *  overhead. */
void
BM_ServeNetworkQpsTraced(benchmark::State &state)
{
    runNetworkQps(state, true);
}
BENCHMARK(BM_ServeNetworkQpsTraced)
    ->Arg(16)
    ->Arg(64)
    ->Arg(256)
    ->UseRealTime();

/**
 * Durable ingest over the wire: one connection keeps Submit/Start
 * event frames pipelined at depth 16 into a --state-dir service behind
 * a real BoundServer, with the daemon's defaults (checkpoint every
 * 1000 events per shard) and --sync-every=state.range(0). Each batch
 * touches four keys, so at sync=1 the group commit pays one fsync per
 * dirty shard per drained batch. events_per_sec counts durably acked
 * events; events_per_fsync is events over qdel_persist_fsync_seconds
 * observations (checkpoints included); rtt_p50/p99_us are per-batch
 * round trips.
 */
void
BM_ServeNetworkIngestDurable(benchmark::State &state)
{
    constexpr size_t kDepth = 16;
    const bool obs_was_enabled = obs::enabled();
    obs::setEnabled(true);  // For the fsync histogram.
    char dir_template[] = "/tmp/qdel_bench_durable_XXXXXX";
    const char *dir = ::mkdtemp(dir_template);
    if (dir == nullptr) {
        state.SkipWithError("mkdtemp failed");
        return;
    }
    serve::ServiceConfig config;
    config.registry.shards = 8;
    config.registry.trainJobs = 100;
    config.registry.epochSeconds = 300.0;
    config.stateDir = dir;
    config.checkpointEveryEvents = 1000;
    config.syncEveryRecords = static_cast<size_t>(state.range(0));
    auto opened = serve::BoundService::open(config);
    if (!opened.ok()) {
        state.SkipWithError("service open failed");
        return;
    }
    auto service = std::move(opened).value();
    auto started = serve::BoundServer::start(*service, {});
    if (!started.ok()) {
        state.SkipWithError("server start failed");
        return;
    }
    auto server = std::move(started).value();
    const int fd = connectLoopback(server->port());
    if (fd < 0) {
        state.SkipWithError("connect failed");
        return;
    }

    const auto fsyncs_before = histogramNow("qdel_persist_fsync_seconds");
    std::vector<double> rtts;
    rtts.reserve(1 << 16);
    std::string batch;
    std::string payload;
    uint64_t job_id = 0;
    bool failed = false;
    for (auto _ : state) {
        batch.clear();
        for (size_t i = 0; i < kDepth / 2; ++i) {
            serve::JobEvent submit;
            submit.kind = serve::EventKind::Submit;
            submit.jobId = ++job_id;
            submit.time = 60.0 * static_cast<double>(job_id);
            submit.machine = machineName(job_id % kMachines);
            submit.queue = queueName(0);
            submit.procs = 8;
            serve::JobEvent start = submit;
            start.kind = serve::EventKind::Start;
            start.time = submit.time + 30.0 +
                         static_cast<double>((job_id * 37) % 900);
            batch += serve::frameRequest(serve::Opcode::Event,
                                         serve::encodeEvent(submit));
            batch += serve::frameRequest(serve::Opcode::Event,
                                         serve::encodeEvent(start));
        }
        const auto begin = std::chrono::steady_clock::now();
        if (!sendAll(fd, batch)) {
            failed = true;
            break;
        }
        for (size_t i = 0; i < kDepth && !failed; ++i) {
            failed = !readFrame(fd, &payload) || payload.empty() ||
                     payload[0] != static_cast<char>(serve::Status::Ok);
        }
        if (failed)
            break;
        rtts.push_back(std::chrono::duration<double, std::micro>(
                           std::chrono::steady_clock::now() - begin)
                           .count());
    }
    const auto fsyncs_after = histogramNow("qdel_persist_fsync_seconds");
    ::close(fd);
    server->stop();
    service.reset();
    std::error_code ignored;
    std::filesystem::remove_all(dir, ignored);
    obs::setEnabled(obs_was_enabled);
    if (failed) {
        state.SkipWithError("durable round trip failed");
        return;
    }

    std::sort(rtts.begin(), rtts.end());
    const auto at = [&](double p) {
        return rtts.empty()
                   ? 0.0
                   : rtts[std::min(rtts.size() - 1,
                                   static_cast<size_t>(
                                       p * static_cast<double>(
                                               rtts.size())))];
    };
    const double events =
        static_cast<double>(state.iterations()) * kDepth;
    const uint64_t fsyncs = fsyncs_after.second - fsyncs_before.second;
    state.counters["rtt_p50_us"] = at(0.50);
    state.counters["rtt_p99_us"] = at(0.99);
    state.counters["events_per_fsync"] =
        fsyncs == 0 ? 0.0 : events / static_cast<double>(fsyncs);
    state.counters["events_per_sec"] =
        benchmark::Counter(events, benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ServeNetworkIngestDurable)
    ->ArgName("sync")
    ->Arg(1)
    ->Arg(0)
    ->UseRealTime();

/**
 * The overload row: a real BoundServer over loopback with
 * state.range(0) slow-loris connections parked in slots (each sent a
 * partial frame header and went silent), while one healthy client
 * measures query round-trip latency through the same server. Deadlines
 * are set long so the stalled connections keep their slots for the
 * whole measurement — the bench isolates "does a stalled neighbour
 * slow a healthy client", not the reaper. A final pass measures shed
 * latency: connect + ping against a full server, timed until the
 * Status::Shed frame lands (the number the runbook quotes).
 */
void
BM_ServeOverloadHealthyLatency(benchmark::State &state)
{
    const size_t stalled = static_cast<size_t>(state.range(0));
    serve::ServiceConfig config;
    config.registry.shards = 8;
    config.registry.trainJobs = 100;
    config.registry.epochSeconds = 300.0;
    auto opened = serve::BoundService::open(config);
    if (!opened.ok()) {
        state.SkipWithError("service open failed");
        return;
    }
    auto service = std::move(opened).value();
    // Train one key so the measured query answers from a snapshot.
    uint64_t job_id = 0;
    for (size_t i = 0; i < 150; ++i) {
        serve::JobEvent submit;
        submit.kind = serve::EventKind::Submit;
        submit.jobId = ++job_id;
        submit.time = 0.0;
        submit.machine = "machine0";
        submit.queue = "queue0";
        submit.procs = 8;
        (void)service->ingest(submit);
        serve::JobEvent start = submit;
        start.kind = serve::EventKind::Start;
        start.time = 30.0 + static_cast<double>((i * 37) % 900);
        (void)service->ingest(start);
    }

    serve::ServerOptions options;
    options.maxConnections = stalled + 1;
    options.ioTimeoutMs = 120000;   // park the stallers, not the bench
    options.idleTimeoutMs = 120000;
    auto started = serve::BoundServer::start(*service, options);
    if (!started.ok()) {
        state.SkipWithError("server start failed");
        return;
    }
    auto server = std::move(started).value();

    std::vector<int> stalledFds;
    for (size_t i = 0; i < stalled; ++i) {
        const int fd = connectLoopback(server->port());
        if (fd < 0) {
            state.SkipWithError("stalled connect failed");
            server->stop();
            return;
        }
        sendAll(fd, std::string_view("\x09\x00", 2));  // half a header
        stalledFds.push_back(fd);
    }

    const int healthy = connectLoopback(server->port());
    if (healthy < 0) {
        state.SkipWithError("healthy connect failed");
        server->stop();
        return;
    }
    serve::BoundQuery query;
    query.machine = "machine0";
    query.queue = "queue0";
    query.procs = 8;
    query.quantile = 0.95;
    const std::string request = serve::frameRequest(
        serve::Opcode::Query, serve::encodeQuery(query));

    std::vector<double> samples;
    samples.reserve(1 << 16);
    std::string payload;
    bool failed = false;
    for (auto _ : state) {
        const auto begin = std::chrono::steady_clock::now();
        if (!sendAll(healthy, request) ||
            !readFrame(healthy, &payload)) {
            failed = true;
            break;
        }
        const auto end = std::chrono::steady_clock::now();
        samples.push_back(
            std::chrono::duration<double, std::micro>(end - begin)
                .count());
    }
    if (failed)
        state.SkipWithError("healthy round trip failed");

    // Shed latency: every slot is now occupied (stallers + healthy),
    // so a fresh connection is answered by the shed path and closed.
    std::vector<double> shed_samples;
    for (size_t i = 0; i < 64 && !failed; ++i) {
        const auto begin = std::chrono::steady_clock::now();
        const int fd = connectLoopback(server->port());
        if (fd < 0)
            break;
        sendAll(fd, serve::frameRequest(serve::Opcode::Ping, ""));
        std::string shed_payload;
        const bool answered = readFrame(fd, &shed_payload);
        const auto end = std::chrono::steady_clock::now();
        ::close(fd);
        if (answered && !shed_payload.empty() &&
            static_cast<uint8_t>(shed_payload[0]) ==
                static_cast<uint8_t>(serve::Status::Shed)) {
            shed_samples.push_back(
                std::chrono::duration<double, std::micro>(end - begin)
                    .count());
        }
    }

    ::close(healthy);
    for (int fd : stalledFds)
        ::close(fd);
    server->stop();

    const auto at = [](std::vector<double> &values, double p) {
        if (values.empty())
            return 0.0;
        std::sort(values.begin(), values.end());
        return values[std::min(
            values.size() - 1,
            static_cast<size_t>(p *
                                static_cast<double>(values.size())))];
    };
    state.counters["healthy_p50_us"] = at(samples, 0.50);
    state.counters["healthy_p99_us"] = at(samples, 0.99);
    state.counters["shed_p50_us"] = at(shed_samples, 0.50);
    state.counters["shed_p99_us"] = at(shed_samples, 0.99);
    state.counters["queries_per_sec"] = benchmark::Counter(
        static_cast<double>(state.iterations()),
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ServeOverloadHealthyLatency)
    ->Arg(4)
    ->Arg(32)
    ->Unit(benchmark::kMicrosecond);

} // namespace

BENCHMARK_MAIN();
