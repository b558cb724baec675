/**
 * @file
 * Implementation of the HTTP routes and their JSON renderers. See
 * routes.hh for the split from the reactor.
 */

#include "serve/routes.hh"

#include "obs/domain_metrics.hh"
#include "obs/metrics.hh"
#include "obs/obs.hh"
#include "util/json.hh"

namespace qdel {
namespace serve {

namespace {

HttpReply
reply(int status, std::string_view contentType, std::string body)
{
    HttpReply out;
    out.status = status;
    out.contentType = contentType;
    out.body = std::move(body);
    return out;
}

HttpReply
text(int status, std::string body)
{
    return reply(status, "text/plain", std::move(body));
}

HttpReply
json(std::string body, int status = 200)
{
    return reply(status, "application/json", std::move(body));
}

/** GET /debug/calibration: the live analogue of the offline
 *  correct-fraction table, one row per (machine, queue, bucket). */
std::string
calibrationToJson(const BoundRegistry::CalibrationReport &report)
{
    std::string out;
    JsonWriter w(out);
    w.beginObject()
        .field("confidence", report.confidence)
        .field("quantile", report.quantile)
        .field("windowCapacity", report.windowCapacity)
        .field("entries", report.rows.size())
        .field("scoredEntries", report.scoredEntries)
        .field("failingEntries", report.failingEntries)
        .field("worstCoverage", report.worstCoverage)
        .field("maxUndercoverage", report.maxUndercoverage)
        .key("rows")
        .beginArray();
    for (const auto &row : report.rows) {
        w.beginObject()
            .field("machine", row.machine)
            .field("queue", row.queue)
            .field("bucket", row.bucket)
            .field("bucketLabel", procBucketLabel(row.bucket))
            .field("observations", row.observations)
            .field("finalized", row.finalized)
            .field("scored", row.scored)
            .field("hits", row.hits)
            .field("infinite", row.infinite)
            .field("windowCount", row.windowCount)
            .field("windowHits", row.windowHits)
            .field("lifetimeCoverage", row.lifetimeCoverage)
            .field("windowCoverage", row.windowCoverage)
            .field("drift", row.drift)
            .field("pValue", row.pValue)
            .field("failing", row.failing)
            .endObject();
    }
    w.endArray().endObject();
    return out;
}

/** GET /debug/shards: per-shard registry counters + WAL replay depth. */
std::string
shardsToJson(const BoundService &service)
{
    const auto rows = service.debugShards();
    std::string out;
    JsonWriter w(out);
    w.beginObject().field("durable", service.durable()).key("shards");
    w.beginArray();
    for (size_t s = 0; s < rows.size(); ++s) {
        const auto &row = rows[s];
        w.beginObject()
            .field("shard", s)
            .field("entries", row.info.entries)
            .field("pending", row.info.pending)
            .field("applied", row.info.applied)
            .field("rejected", row.info.rejected)
            .field("clients", row.info.clients)
            .field("walSinceCheckpoint", row.walSinceCheckpoint)
            .field("failed", !row.failure.empty());
        if (!row.failure.empty())
            w.field("failure", row.failure);
        w.endObject();
    }
    w.endArray().endObject();
    return out;
}

} // namespace

HttpReply
routeHttp(BoundService &service, const HttpRequest &request,
          const ConnViewSource &connViews)
{
    HttpParams params(request);
    auto rejectBad = [&] {
        return text(400, std::string("malformed parameter '") +
                             params.bad() + "'\n");
    };
    const std::string &method = request.method;
    const std::string &path = request.path;
    std::string body;
    JsonWriter w(body);

    if (method == "GET" && path == "/healthz") {
        // A failed shard takes no writes until a restart recovers it.
        const size_t failed = service.failedShards();
        if (failed > 0) {
            w.beginObject().field("status", "failed");
            w.field("failedShards", failed).endObject();
            return json(std::move(body), 503);
        }
        w.beginObject().field("status", "ok").endObject();
        return json(std::move(body));
    }
    if (method == "GET" && path == "/metrics") {
        // Refresh the calibration gauges so the scrape reflects the
        // entries as of this instant (counters are always live).
        service.registry().calibrationReport();
        return reply(200, "text/plain; version=0.0.4",
                     obs::renderPrometheus(obs::registry().snapshot()));
    }
    if (method == "GET" && path == "/bound") {
        QDEL_OBS_SPAN(query_span, obs::serveMetrics().querySeconds,
                      obs::EventType::Span, "serve_query");
        QDEL_OBS(query_span.setTrace(request.traceId));
        BoundQuery query;
        query.machine = params.str("machine");
        query.queue = params.str("queue");
        query.procs = params.integer("procs", 1);
        query.quantile = params.finite("q", 0.95);
        query.traceId = request.traceId;
        if (params.bad() != nullptr)
            return rejectBad();
        return json(answerToJson(service.query(query)));
    }
    if (method == "GET" && path == "/debug/calibration") {
        return json(
            calibrationToJson(service.registry().calibrationReport()));
    }
    if (method == "GET" && path == "/debug/shards")
        return json(shardsToJson(service));
    if (method == "GET" && path == "/debug/conns")
        return json(connsToJson(connViews()));
    if (method == "POST" && path == "/event") {
        JobEvent event;
        const std::string kind = params.str("kind");
        if (kind == "submit")
            event.kind = EventKind::Submit;
        else if (kind == "start")
            event.kind = EventKind::Start;
        else if (kind == "done")
            event.kind = EventKind::Done;
        else
            return text(400, "kind must be submit|start|done\n");
        event.jobId = params.u64("job", 0);
        event.time = params.finite("time", 0.0);
        event.machine = params.str("machine");
        event.queue = params.str("queue");
        event.procs = params.integer("procs", 1);
        event.clientId = params.str("client");
        event.seq = params.u64("seq", 0);
        event.traceId = request.traceId;
        if (params.bad() != nullptr)
            return rejectBad();
        size_t shard = 0;
        auto outcome = service.stage(event, &shard);
        if (!outcome.ok())
            return text(500, outcome.error().reason + "\n");
        const ApplyOutcome &applied = outcome.value();
        HttpReply out;
        if (applied.shed) {
            out = text(503, "overloaded: shard pending bound exceeded\n");
            out.headers = {
                {"Retry-After", std::to_string(applied.retryAfterSeconds)}};
        } else {
            w.beginObject().field("applied", applied.applied);
            if (applied.deduped)
                w.field("deduped", true);
            if (!applied.applied && !applied.deduped)
                w.field("reason", applied.rejectReason);
            w.endObject();
            out = json(std::move(body));
        }
        out.stagedShard = shard;
        return out;
    }
    if (method == "POST" && path == "/checkpoint") {
        if (auto ok = service.checkpointAll(); !ok.ok())
            return text(500, ok.error().reason + "\n");
        w.beginObject().field("ok", true).endObject();
        return json(std::move(body));
    }
    if (method == "GET" && path == "/stats")
        return json(statsToJson(service.stats()));
    return text(404, "unknown route\n");
}

std::string
answerToJson(const BoundAnswer &answer)
{
    std::string out;
    JsonWriter(out)
        .beginObject()
        .field("known", answer.known)
        .field("upper", answer.upper)
        .field("lower", answer.lower)
        .field("quantile", answer.quantile)
        .field("confidence", answer.confidence)
        .field("history", answer.historySize)
        .field("observations", answer.observations)
        .field("version", answer.version)
        .endObject();
    return out;
}

std::string
statsToJson(const ServeStats &stats)
{
    std::string out;
    JsonWriter w(out);
    w.beginObject().field("entries", stats.entries).key("shards");
    w.beginArray();
    for (uint64_t processed : stats.processedPerShard)
        w.value(processed);
    w.endArray().endObject();
    return out;
}

/** Every loop's connections from the reactor's relaxed introspection
 *  mirrors: buffer depths, deadline, protocol. */
std::string
connsToJson(const std::vector<LoopView> &loops)
{
    std::string out;
    JsonWriter w(out);
    w.beginObject().key("loops").beginArray();
    for (size_t i = 0; i < loops.size(); ++i) {
        w.beginObject()
            .field("loop", i)
            .field("connCount", loops[i].connCount)
            .key("conns")
            .beginArray();
        for (const ConnView &c : loops[i].conns) {
            w.beginObject()
                .field("fd", c.fd)
                .field("proto", c.proto)
                .field("inBytes", c.inBytes)
                .field("outBytes", c.outBytes)
                .field("idleDeadline", c.idleDeadline)
                .field("deadlineMs", c.deadlineMs)
                .endObject();
        }
        w.endArray().endObject();
    }
    w.endArray().endObject();
    return out;
}

} // namespace serve
} // namespace qdel
