/**
 * @file
 * Implementation of the shared daemon-workload pieces.
 */

#include "serve_common.hh"

#include <cstring>
#include <deque>
#include <stdexcept>

#include "serve/service.hh"
#include "workloads.hh"

namespace perfbench {

using namespace qdel;

unsigned
reactorThreads(const RunOptions &options)
{
    const unsigned busy = kGeneratorThreads + kSpareCores;
    return options.cores > busy ? options.cores - busy : 1;
}

Server
startServer(const RunOptions &options,
            const std::vector<std::string> &extraArgs,
            const std::string &logName)
{
    // Requests slower than the 1 ms latency limit are counted by the
    // daemon's slow-request log (server.slow_requests).
    std::vector<std::string> args = {
        "--reactor-threads=" + std::to_string(reactorThreads(options)),
        "--slow-request-us=1000"};
    args.insert(args.end(), extraArgs.begin(), extraArgs.end());
    Server server;
    std::string error;
    server.daemon = Daemon::start(options, args, logName, &error);
    if (!server.daemon)
        throw std::runtime_error(error);
    server.conns =
        connectFrames(server.daemon->port(), reactorThreads(options));
    const int httpFd = connectLoopback(server.daemon->port());
    if (server.conns.empty() || httpFd < 0)
        throw std::runtime_error("cannot connect to qdel_serve");
    server.http = std::make_unique<HttpConn>(httpFd);
    return server;
}

void
stopServer(Server &server, Report &report, std::string *log)
{
    server.conns.clear();
    server.http.reset();
    report.check(server.daemon->stop(log), "qdel_serve did not exit cleanly");
}

void
appendEventFrame(std::string &out, const serve::JobEvent &event)
{
    out += serve::frameRequest(serve::Opcode::Event,
                               serve::encodeEventWire(event));
}

void
appendQueryFrame(std::string &out, const serve::BoundQuery &query)
{
    out += serve::frameRequest(serve::Opcode::Query, serve::encodeQuery(query));
}

bool
decodeEventReply(std::string_view payload, bool *applied)
{
    // u8 status | u8 applied | str reason | u8 deduped
    if (payload.size() < 2 ||
        static_cast<uint8_t>(payload[0]) !=
            static_cast<uint8_t>(serve::Status::Ok))
        return false;
    *applied = payload[1] != 0;
    return true;
}

bool
decodeQueryReply(std::string_view payload, serve::BoundAnswer *answer)
{
    if (payload.empty() || static_cast<uint8_t>(payload[0]) !=
                               static_cast<uint8_t>(serve::Status::Ok))
        return false;
    auto decoded = serve::decodeAnswer(payload.substr(1));
    if (!decoded.ok())
        return false;
    *answer = decoded.value();
    return true;
}

std::vector<std::unique_ptr<FrameConn>>
connectFrames(int port, size_t count)
{
    std::vector<std::unique_ptr<FrameConn>> conns;
    for (size_t i = 0; i < count; ++i) {
        const int fd = connectLoopback(port);
        if (fd < 0)
            return {};
        conns.push_back(std::make_unique<FrameConn>(fd));
    }
    return conns;
}

bool
runClosedLoop(
    std::vector<std::unique_ptr<FrameConn>> &conns,
    const std::vector<std::vector<uint32_t>> &lists, size_t window,
    int64_t stopNs,
    const std::function<void(size_t, uint32_t, std::string &)> &encode,
    const std::function<void(size_t, uint32_t, int64_t, int64_t,
                             std::string_view)> &onReply)
{
    struct Sent
    {
        uint32_t item;
        int64_t sendNs;
    };
    std::vector<std::deque<Sent>> pending(conns.size());
    std::vector<size_t> next(conns.size(), 0);
    int64_t drainDeadline = 0;
    for (;;) {
        const int64_t now = nowNs();
        const bool sending = stopNs == 0 || now < stopNs;
        if (!sending && drainDeadline == 0)
            drainDeadline = now + 60'000'000'000LL;
        bool done = true;
        for (size_t c = 0; c < conns.size(); ++c) {
            FrameConn &conn = *conns[c];
            while (sending && pending[c].size() < window &&
                   next[c] < lists[c].size()) {
                const uint32_t item = lists[c][next[c]++];
                encode(c, item, conn.out());
                pending[c].push_back({item, now});
            }
            if (!conn.pump())
                return false;
            std::string_view payload;
            const int64_t recvNs = nowNs();
            while (conn.nextFrame(&payload)) {
                if (pending[c].empty())
                    return false;  // A reply nobody asked for.
                const Sent sent = pending[c].front();
                pending[c].pop_front();
                onReply(c, sent.item, sent.sendNs, recvNs, payload);
            }
            if (!pending[c].empty() ||
                (sending && next[c] < lists[c].size()))
                done = false;
        }
        if (done)
            return true;
        if (drainDeadline != 0 && nowNs() > drainDeadline)
            return false;
    }
}

void
serverLayers(MetricsDelta &delta, std::vector<double> rttUs, Report &report)
{
    const HistogramDelta request =
        delta.histogram("qdel_serve_request_seconds");
    const HistogramDelta query = delta.histogram("qdel_serve_query_seconds");
    const HistogramDelta batch = delta.histogram("qdel_serve_batch_frames");
    const double requests = delta.counter("qdel_serve_requests_total");
    const double wakeups = delta.counter("qdel_serve_loop_wakeups_total");
    report.metric("server.request_us_p50", request.quantile(0.50) * 1e6, "us");
    report.metric("server.request_us_p99", request.quantile(0.99) * 1e6, "us");
    report.metric("server.query_us_p50", query.quantile(0.50) * 1e6, "us");
    report.metric("server.net_us_p50",
                  quantile(rttUs, 0.5) - request.quantile(0.50) * 1e6, "us");
    report.metric("server.batch_frames_mean", batch.mean(), "frames");
    report.metric("server.wakeups_per_frame",
                  requests > 0 ? wakeups / requests : 0.0, "ratio");
    report.metric("server.shed", delta.counter("qdel_serve_shed_total"),
                  "count");
    report.metric("server.reaped",
                  delta.counter("qdel_serve_reaped_connections_total"),
                  "count");
    report.metric("server.slow_requests",
                  delta.counter("qdel_serve_slow_requests_total"), "count");
    report.metric("registry.entries", delta.gauge("qdel_serve_entries"),
                  "count");
    report.metric("registry.snapshot_publishes",
                  delta.counter("qdel_serve_snapshot_publishes_total"),
                  "count");
}

double
calibrationReportMs(const serve::BoundRegistry &registry)
{
    std::vector<double> ms;
    for (int i = 0; i < 5; ++i) {
        const int64_t start = nowNs();
        (void)registry.calibrationReport();
        ms.push_back(static_cast<double>(nowNs() - start) * 1e-6);
    }
    return median(ms);
}

namespace {

/** Sum every `"key":N` in @p json. */
uint64_t
sumField(const std::string &json, const std::string &key, size_t *found)
{
    const std::string needle = "\"" + key + "\":";
    uint64_t total = 0;
    *found = 0;
    for (size_t at = json.find(needle); at != std::string::npos;
         at = json.find(needle, at + needle.size())) {
        total += std::strtoull(json.c_str() + at + needle.size(), nullptr, 10);
        ++*found;
    }
    return total;
}

} // namespace

bool
parseCalibration(const std::string &json, CalibrationTotals *totals)
{
    size_t entries = 0;
    size_t failing = 0;
    size_t scored = 0;
    size_t hits = 0;
    totals->entries = sumField(json, "entries", &entries);
    totals->failingEntries = sumField(json, "failingEntries", &failing);
    totals->scored = sumField(json, "scored", &scored);
    totals->hits = sumField(json, "hits", &hits);
    return entries == 1 && failing == 1 && scored == totals->entries &&
           hits == totals->entries;
}

std::string
digestFromLog(const std::string &log)
{
    const std::string needle = "digest: ";
    const size_t at = log.rfind(needle);
    if (at == std::string::npos)
        return "";
    const size_t end = log.find('\n', at);
    return log.substr(at + needle.size(), end == std::string::npos
                                              ? std::string::npos
                                              : end - at - needle.size());
}

std::string
referenceDigest(const std::vector<serve::JobEvent> &events)
{
    auto opened = serve::BoundService::open(serve::ServiceConfig{});
    if (!opened.ok())
        throw std::runtime_error("reference service: " + opened.error().str());
    auto service = std::move(opened).value();
    for (const auto &event : events) {
        if (!service->ingest(event).ok())
            throw std::runtime_error("reference service: ingest failed");
    }
    return service->digest();
}

} // namespace perfbench
