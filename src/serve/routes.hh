/**
 * @file
 * The HTTP application layer of the bound service: routeHttp() maps one
 * parsed request to a reply, and every JSON body of the HTTP API is
 * rendered here with JsonWriter.
 *
 * Transport stays in server.cc: it parses the request head, appends the
 * reply with appendHttpResponse(), and holds a reply to a staged event
 * until that shard's group commit (see server.hh). Nothing here sees a
 * reactor loop or a connection; GET /debug/conns is rendered from plain
 * view rows the reactor builds on demand.
 *
 * Routes: GET /healthz, /metrics, /bound, /stats, /debug/calibration,
 * /debug/shards, /debug/conns; POST /event, /checkpoint.
 */

#ifndef QDEL_SERVE_ROUTES_HH
#define QDEL_SERVE_ROUTES_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "serve/http.hh"
#include "serve/service.hh"
#include "serve/wire.hh"

namespace qdel {
namespace serve {

/** One HTTP reply before framing: what appendHttpResponse() renders. */
struct HttpReply
{
    int status = 200;
    std::string_view contentType = "application/json";
    std::string body;
    /** Extra headers: Retry-After on a shed event. */
    std::vector<std::pair<std::string, std::string>> headers;
    /** The shard POST /event staged into. The reply may leave only
     *  after that shard's commit; empty for every other request. */
    std::optional<size_t> stagedShard;
};

/** One connection's introspection mirrors, for GET /debug/conns. */
struct ConnView
{
    int fd = -1;
    const char *proto = "sniff";  //!< "sniff", "binary" or "http".
    uint64_t inBytes = 0;         //!< Unparsed receive bytes.
    uint64_t outBytes = 0;        //!< Unflushed response bytes.
    bool idleDeadline = true;     //!< Idle (vs io) budget armed.
    double deadlineMs = 0.0;      //!< Until the deadline; < 0 = past.
};

/** One reactor loop's connections, for GET /debug/conns. */
struct LoopView
{
    size_t connCount = 0;
    std::vector<ConnView> conns;
};

/** Snapshots every loop's connections (called for /debug/conns only). */
using ConnViewSource = std::function<std::vector<LoopView>()>;

/** Answer one HTTP request; unknown routes get a 404. */
HttpReply routeHttp(BoundService &service, const HttpRequest &request,
                    const ConnViewSource &connViews);

/** GET /bound body (inf/nan become null). */
std::string answerToJson(const BoundAnswer &answer);

/** GET /stats body. */
std::string statsToJson(const ServeStats &stats);

/** GET /debug/conns body. */
std::string connsToJson(const std::vector<LoopView> &loops);

} // namespace serve
} // namespace qdel

#endif // QDEL_SERVE_ROUTES_HH
