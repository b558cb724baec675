/**
 * @file
 * durable-ingest: a firehose of one large catalog queue into a
 * qdel_serve that logs every event to its write-ahead log before
 * applying it (--state-dir, default --sync-every=1 and
 * --checkpoint-every).
 *
 * The queue's jobs become Submit/Start events through
 * serve::eventsFromJobs, with a bound query right after each Submit.
 * Events are partitioned across connections by the registry shard that
 * owns their key, so every shard sees its events in one deterministic
 * order, and the daemon's final digest must equal an in-process
 * BoundService that ingested the same per-shard order. The loop is
 * closed: each connection keeps a fixed window of requests in flight.
 */

#include <filesystem>
#include <map>

#include "obs/metrics.hh"
#include "prom.hh"
#include "serve/bound_registry.hh"
#include "serve/service.hh"
#include "serve_common.hh"
#include "spans.hh"
#include "workload/site_catalog.hh"
#include "workload/synthesizer.hh"
#include "workloads.hh"

namespace perfbench {

namespace {

using namespace qdel;
namespace fs = std::filesystem;

/** Requests each connection keeps in flight. */
constexpr size_t kInFlight = 16;
/** peak_rss_mb is the daemon's VmHWM once this many events are acked,
 *  so it compares the same work however fast the disk is. */
constexpr uint64_t kRssAtEvents = 50000;
/** Events the in-process service and registry probes replay. */
constexpr size_t kProbeEvents = 20000;

/** Item ids in a connection's list: event index * 2, plus 1 for the
 *  bound query that follows a Submit. */
constexpr uint32_t kQueryBit = 1;

struct Firehose
{
    std::string label;                    //!< "site/queue".
    std::vector<serve::JobEvent> events;  //!< eventsFromJobs order.
    std::vector<std::vector<uint32_t>> lists;  //!< Per connection.
};

/** The catalog queue with the most jobs. */
const workload::QueueProfile &
largestQueue()
{
    const workload::QueueProfile *best = nullptr;
    for (const auto &profile : workload::siteCatalog()) {
        if (best == nullptr || profile.jobCount > best->jobCount)
            best = &profile;
    }
    return *best;
}

Firehose
makeFirehose(uint64_t seed, size_t connections)
{
    const auto &profile = largestQueue();
    const trace::Trace t = workload::synthesizeTrace(profile, seed);
    const std::vector<trace::JobRecord> jobs(t.begin(), t.end());
    Firehose firehose;
    firehose.label = std::string(profile.site) + "/" + profile.queue;
    firehose.events = serve::eventsFromJobs(jobs, profile.site);
    // Shard routing is the registry's; build one only to ask it. The
    // shards in use are dealt to connections in shard order, so each
    // shard's events travel in order on one connection.
    const serve::BoundRegistry router{serve::BoundRegistry::Options{}};
    std::map<size_t, size_t> connOfShard;
    for (const auto &event : firehose.events)
        connOfShard.emplace(router.shardForEvent(event), 0);
    size_t rank = 0;
    for (auto &[shard, conn] : connOfShard)
        conn = rank++ % connections;
    firehose.lists.resize(connections);
    for (uint32_t i = 0; i < firehose.events.size(); ++i) {
        const serve::JobEvent &event = firehose.events[i];
        auto &list = firehose.lists[connOfShard[router.shardForEvent(event)]];
        list.push_back(i * 2);
        if (event.kind == serve::EventKind::Submit)
            list.push_back(i * 2 + kQueryBit);
    }
    return firehose;
}

serve::BoundQuery
queryAt(const serve::JobEvent &event)
{
    serve::BoundQuery query;
    query.machine = event.machine;
    query.queue = event.queue;
    query.procs = event.procs;
    query.quantile = 0.95;
    return query;
}

/** One measured phase of the firehose. */
struct Phase
{
    Windowed ackUs;                 //!< Event: send to durable ack.
    std::vector<double> queryUs;    //!< Query at submit: send to answer.
    std::vector<double> rttUs;      //!< Every request.
    std::vector<std::vector<uint32_t>> acked;  //!< Per conn, in order.
    uint64_t events = 0;
    uint64_t rejected = 0;  //!< Acked but not applied (deterministic).
    int64_t durationNs = 0; //!< First send to last reply.
    double peakRssMb = 0.0; //!< Daemon VmHWM at kRssAtEvents acked.
    double daemonCpuSeconds = 0.0;  //!< Daemon CPU time over the phase.
    Scrape before;
    Scrape after;

    /** Durably acked events per second, median over windows. */
    double
    eventsPerSecond() const
    {
        return ackUs.windowedRate(durationNs);
    }
};

Scrape
scrape(Server &server)
{
    std::string body;
    if (!server.http->fetch("/metrics", &body))
        throw std::runtime_error("GET /metrics failed");
    return Scrape::parse(body);
}

/**
 * Drive @p lists (from each connection's position @p next onward) for
 * @p seconds, check every reply, and advance @p next past what was
 * answered.
 */
Phase
drive(Server &server, const Firehose &firehose,
      std::vector<size_t> &next, double seconds, Report &report)
{
    Phase phase;
    phase.acked.resize(server.conns.size());
    std::vector<std::vector<uint32_t>> lists(server.conns.size());
    for (size_t c = 0; c < lists.size(); ++c)
        lists[c].assign(firehose.lists[c].begin() + next[c],
                        firehose.lists[c].end());
    phase.before = scrape(server);
    const double cpuBefore = processCpuSeconds(server.daemon->pid());
    const int64_t start = nowNs();
    int64_t last = start;
    const bool ok = runClosedLoop(
        server.conns, lists, kInFlight,
        start + static_cast<int64_t>(seconds * 1e9),
        [&](size_t, uint32_t item, std::string &out) {
            const serve::JobEvent &event = firehose.events[item / 2];
            if (item & kQueryBit)
                appendQueryFrame(out, queryAt(event));
            else
                appendEventFrame(out, event);
        },
        [&](size_t c, uint32_t item, int64_t sendNs, int64_t recvNs,
            std::string_view payload) {
            ++next[c];
            last = recvNs;
            const double us = static_cast<double>(recvNs - sendNs) * 1e-3;
            phase.rttUs.push_back(us);
            if (item & kQueryBit) {
                spans::record("client.query", sendNs, recvNs, 0, item);
                serve::BoundAnswer answer;
                // The first queries for a key can precede its entry, so
                // known is not required; the grid quantile is.
                const bool good = decodeQueryReply(payload, &answer) &&
                                  answer.quantile == 0.95;
                report.operations(1, good ? 0 : 1);
                phase.queryUs.push_back(us);
                return;
            }
            spans::record("client.event", sendNs, recvNs, 0, item);
            bool applied = false;
            const bool acked = decodeEventReply(payload, &applied);
            report.operations(1, acked ? 0 : 1);
            phase.rejected += acked && !applied ? 1 : 0;
            phase.acked[c].push_back(item / 2);
            phase.ackUs.add(us, sendNs - start);
            if (++phase.events == kRssAtEvents)
                phase.peakRssMb = server.daemon->peakRssMb();
        });
    if (!ok)
        throw std::runtime_error("firehose connection to qdel_serve failed");
    phase.durationNs = last - start;
    phase.daemonCpuSeconds =
        processCpuSeconds(server.daemon->pid()) - cpuBefore;
    phase.after = scrape(server);
    return phase;
}

/** Stop the daemon and check its digest against an in-process drive
 *  of every acked event in the same per-connection (per-shard) order. */
void
stopAndCheckDigest(Server &server, const Firehose &firehose,
                   const std::vector<std::vector<uint32_t>> &acked,
                   Report &report)
{
    std::string log;
    stopServer(server, report, &log);
    std::vector<serve::JobEvent> order;
    for (const auto &list : acked) {
        for (uint32_t i : list)
            order.push_back(firehose.events[i]);
    }
    const std::string daemonDigest = digestFromLog(log);
    const std::string expected = referenceDigest(order);
    report.check(!daemonDigest.empty() && daemonDigest == expected,
                 "daemon digest '" + daemonDigest +
                     "' != in-process BoundService digest '" + expected + "'");
}

/** Total bytes of WAL segments under @p dir, less their headers. */
double
walRecordBytes(const std::string &dir)
{
    constexpr double kSegmentHeaderBytes = 24;
    double bytes = 0;
    for (const auto &entry : fs::recursive_directory_iterator(dir)) {
        if (entry.is_regular_file() &&
            entry.path().filename().string().rfind("wal-", 0) == 0)
            bytes += static_cast<double>(entry.file_size()) -
                     kSegmentHeaderBytes;
    }
    return bytes;
}

/**
 * In-process probes on the first acked events, in the daemon's
 * per-shard order: BoundService::ingest with the daemon's durable
 * configuration, and BoundRegistry::apply with none.
 */
void
inProcessProbes(const RunOptions &options, const Firehose &firehose,
                const std::vector<std::vector<uint32_t>> &acked,
                Report &report)
{
    std::vector<serve::JobEvent> order;
    for (const auto &list : acked) {
        for (uint32_t i : list) {
            if (order.size() < kProbeEvents)
                order.push_back(firehose.events[i]);
        }
    }
    obs::setEnabled(true);  // As in qdel_serve.
    auto openService = [&](const std::string &dir, size_t checkpointEvery,
                           size_t syncEvery) {
        fs::remove_all(dir);
        serve::ServiceConfig config;
        config.stateDir = dir;
        config.checkpointEveryEvents = checkpointEvery;
        config.syncEveryRecords = syncEvery;
        auto opened = serve::BoundService::open(config);
        if (!opened.ok())
            throw std::runtime_error("probe service: " + opened.error().str());
        return std::move(opened).value();
    };
    const std::string root = options.workDir + "/durable-ingest";

    // qdel_serve's defaults: --checkpoint-every=1000, --sync-every=1.
    auto service = openService(root + "/probe-service", 1000, 1);
    std::vector<double> ingestUs;
    for (const auto &event : order) {
        const int64_t t0 = nowNs();
        if (!service->ingest(event).ok())
            throw std::runtime_error("probe service: ingest failed");
        ingestUs.push_back(static_cast<double>(nowNs() - t0) * 1e-3);
    }
    report.metric("service.ingest_us_p50", quantile(ingestUs, 0.50), "us");
    report.metric("service.ingest_us_p99", quantile(ingestUs, 0.99), "us");

    // The same order through an ephemeral registry, with the query at
    // each submit encoded, answered and decoded as the client and the
    // daemon would: the registry and wire layers without the socket.
    serve::BoundRegistry registry{serve::BoundRegistry::Options{}};
    std::vector<double> applyUs;
    int64_t encodeNs = 0;
    int64_t queryNs = 0;
    int64_t decodeNs = 0;
    size_t queries = 0;
    std::string frame;
    std::string reply;
    for (const auto &event : order) {
        int64_t t0 = nowNs();
        (void)registry.apply(event);
        int64_t t1 = nowNs();
        applyUs.push_back(static_cast<double>(t1 - t0) * 1e-3);
        if (event.kind != serve::EventKind::Submit)
            continue;
        const serve::BoundQuery query = queryAt(event);
        t0 = nowNs();
        frame.clear();
        appendQueryFrame(frame, query);
        t1 = nowNs();
        const serve::BoundAnswer answer = registry.query(query);
        const int64_t t2 = nowNs();
        reply.clear();
        serve::appendAnswerFrame(reply, answer);
        serve::BoundAnswer decoded;
        const int64_t t3 = nowNs();
        // The reply frame's payload starts after its 4-byte length.
        (void)decodeQueryReply(std::string_view(reply).substr(4), &decoded);
        decodeNs += nowNs() - t3;
        encodeNs += t1 - t0;
        queryNs += t2 - t1;
        ++queries;
    }
    const auto perQuery = [&](int64_t ns) {
        return queries == 0 ? 0.0
                            : static_cast<double>(ns) /
                                  static_cast<double>(queries);
    };
    report.metric("registry.apply_us_p50", quantile(applyUs, 0.50), "us");
    report.metric("wire.query_encode_ns", perQuery(encodeNs), "ns");
    report.metric("registry.query_ns", perQuery(queryNs), "ns");
    report.metric("wire.answer_decode_ns", perQuery(decodeNs), "ns");
    report.metric("registry.calibration_report_ms",
                  calibrationReportMs(registry), "ms");

    // Record bytes do not depend on the sync or checkpoint cadence; a
    // log that is never checkpointed keeps every segment to measure.
    const std::string walDir = root + "/probe-wal";
    auto logOnly = openService(walDir, 0, 0);
    for (const auto &event : order) {
        if (!logOnly->ingest(event).ok())
            throw std::runtime_error("probe service: ingest failed");
    }
    logOnly.reset();
    report.metric("persist.wal_bytes_per_event",
                  order.empty() ? 0.0
                                : walRecordBytes(walDir) /
                                      static_cast<double>(order.size()),
                  "bytes");
    obs::setEnabled(false);
}

/** persist.* and calibration layer metrics for a traced phase. */
void
persistLayers(Server &server, const Phase &phase, Report &report)
{
    MetricsDelta delta(phase.before, phase.after, report);
    serverLayers(delta, phase.rttUs, report);
    const HistogramDelta fsync = delta.histogram("qdel_persist_fsync_seconds");
    const HistogramDelta checkpoint =
        delta.histogram("qdel_persist_checkpoint_seconds");
    const HistogramDelta request =
        delta.histogram("qdel_serve_request_seconds");
    report.metric("obs.metrics_bytes", static_cast<double>(phase.after.bytes()),
                  "bytes");
    report.metric("persist.wal_appends",
                  delta.counter("qdel_persist_wal_appends_total"), "count");
    report.metric("persist.fsyncs", fsync.count, "count");
    report.metric("persist.fsync_us_p50", fsync.quantile(0.50) * 1e6, "us");
    report.metric("persist.fsync_us_p99", fsync.quantile(0.99) * 1e6, "us");
    report.metric("persist.events_per_fsync",
                  fsync.count > 0
                      ? static_cast<double>(phase.events) / fsync.count
                      : 0.0,
                  "ratio");
    report.metric("persist.fsync_share",
                  request.sum > 0 ? fsync.sum / request.sum : 0.0, "ratio");
    report.metric("persist.checkpoints",
                  delta.counter("qdel_persist_checkpoints_written_total"),
                  "count");
    report.metric("persist.checkpoint_ms_p50", checkpoint.quantile(0.50) * 1e3,
                  "ms");

    std::string body;
    CalibrationTotals totals;
    report.check(server.http->fetch("/debug/calibration", &body) &&
                     parseCalibration(body, &totals),
                 "GET /debug/calibration failed or did not parse");
    report.metric("registry.calib_scored", static_cast<double>(totals.scored),
                  "count");
    report.metric("registry.calib_hits", static_cast<double>(totals.hits),
                  "count");
}

} // namespace

void
runDurableIngest(const RunOptions &options, Report &report)
{
    const std::string root = options.workDir + "/durable-ingest";
    fs::create_directories(root);
    const std::string stateDir = root + "/state";
    std::vector<double> setupSeconds;
    Firehose firehose;
    Server server;
    std::string log;
    for (int i = 0; i < (options.trace ? 1 : kSetupRepeats); ++i) {
        if (server.daemon)
            stopServer(server, report, &log);
        const int64_t start = nowNs();
        firehose = makeFirehose(options.seed, reactorThreads(options));
        fs::remove_all(stateDir);
        server = startServer(options, {"--state-dir=" + stateDir, "--digest"},
                             "durable-ingest.log");
        setupSeconds.push_back(secondsSince(start));
    }
    std::vector<size_t> next(server.conns.size(), 0);

    if (!options.trace) {
        Phase phase = drive(server, firehose, next, options.seconds, report);
        std::string body;
        CalibrationTotals totals;
        report.check(server.http->fetch("/debug/calibration", &body) &&
                         parseCalibration(body, &totals),
                     "GET /debug/calibration failed or did not parse");
        if (phase.peakRssMb == 0) {
            // A run too short to reach kRssAtEvents reports its end.
            phase.peakRssMb = server.daemon->peakRssMb();
            report.line("peak_rss_mb taken at the end: fewer than " +
                        std::to_string(kRssAtEvents) + " events acked");
        }
        stopAndCheckDigest(server, firehose, phase.acked, report);

        const double rate = phase.eventsPerSecond();
        // Durably acked events per CPU-second of the daemon. The wall-
        // clock rate follows the shared disk's fsync latency, which
        // moved by a factor of two within minutes; the daemon's CPU
        // cost per durable event does not.
        const double perCpuSecond =
            static_cast<double>(phase.events) / phase.daemonCpuSeconds;
        report.metric("setup_s", median(setupSeconds), "s");
        report.metric("throughput_per_s", perCpuSecond, "1/s");
        report.metric("peak_rss_mb", phase.peakRssMb, "MiB");
        report.line("firehose: " + firehose.label + ", " +
                    std::to_string(phase.events) + " of " +
                    std::to_string(firehose.events.size()) + " events acked, " +
                    std::to_string(phase.rejected) +
                    " rejected by the registry");
        report.note("ingest_events_per_s", rate, "1/s");
        report.note("ingest_ack_p50_us", phase.ackUs.windowedQuantile(0.50),
                    "us");
        report.note("ingest_ack_p99_us", phase.ackUs.windowedQuantile(0.99),
                    "us");
        report.note("query_p50_us", quantile(phase.queryUs, 0.50), "us");
        report.note("query_p99_us", quantile(phase.queryUs, 0.99), "us");
        report.note("failing_queues",
                    static_cast<double>(totals.failingEntries), "count");
        report.note("error_rate", report.errorRate(), "ratio");
        return;
    }

    // Traced: half untraced, then half with spans, on one stream.
    const double half = options.seconds / 2;
    const Phase plain = drive(server, firehose, next, half, report);
    spans::setEnabled(true);
    const Phase traced = drive(server, firehose, next, half, report);
    spans::setEnabled(false);
    persistLayers(server, traced, report);
    report.metric("tracing.overhead_pct",
                  overheadPct(1.0 / plain.eventsPerSecond(),
                              1.0 / traced.eventsPerSecond()),
                  "%");
    std::vector<std::vector<uint32_t>> acked = plain.acked;
    for (size_t c = 0; c < acked.size(); ++c)
        acked[c].insert(acked[c].end(), traced.acked[c].begin(),
                        traced.acked[c].end());
    stopAndCheckDigest(server, firehose, acked, report);
    inProcessProbes(options, firehose, acked, report);
}

} // namespace perfbench
