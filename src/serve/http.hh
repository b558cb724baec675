/**
 * @file
 * Minimal HTTP/1.1 request parsing and response rendering for the
 * serve fallback path. Deliberately tiny: enough for curl, python
 * urllib, and Prometheus scrapes — request line + headers + optional
 * Content-Length body, query-string parameters, percent decoding.
 * Anything fancier (chunked bodies, continuations) is a ParseError,
 * answered with 400 by the server.
 */

#ifndef QDEL_SERVE_HTTP_HH
#define QDEL_SERVE_HTTP_HH

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/expected.hh"

namespace qdel {
namespace serve {

/** Largest request head (request line + headers) accepted; beyond
 *  this the server answers 431 and closes — the slow-loris bound. */
constexpr size_t kMaxHttpHeadBytes = 16 * 1024;

/** Most header lines accepted before the head is rejected with 431. */
constexpr size_t kMaxHttpHeaderCount = 64;

/** One parsed request head (body is read separately by the server). */
struct HttpRequest
{
    std::string method;  //!< Uppercase: "GET", "POST", ...
    std::string path;    //!< Percent-decoded path without the query.
    std::map<std::string, std::string> params;  //!< Decoded query args.
    size_t contentLength = 0;

    /** True when the client explicitly sent "Connection: keep-alive".
     *  Responses stay close-delimited unless the client opts in, so
     *  read-to-EOF clients keep working unchanged. */
    bool keepAlive = false;

    /**
     * Parsed X-Qdel-Trace header: up to 16 hex digits naming the
     * request for end-to-end tracing (same id space as the wire v3
     * trace tail). 0 = header absent or unparsable — tracing is best
     * effort, so a malformed id never fails the request.
     */
    uint64_t traceId = 0;
};

/**
 * Typed reads of a request's query parameters. An absent parameter
 * yields the caller's default. A present one must be exactly one value
 * (whole string, in range, and finite for doubles); otherwise the
 * default comes back and bad() names the first such parameter, so the
 * route answers 400 instead of acting on a silently coerced 0.
 */
class HttpParams
{
  public:
    explicit HttpParams(const HttpRequest &request)
        : params_(request.params)
    {
    }

    /** The decoded value, or "" when absent. */
    std::string str(const char *name) const;
    int integer(const char *name, int fallback);
    double finite(const char *name, double fallback);
    uint64_t u64(const char *name, uint64_t fallback);

    /** First malformed parameter read so far; nullptr when none. */
    const char *bad() const { return bad_; }

  private:
    const std::string *find(const char *name) const;
    void reject(const char *name);

    const std::map<std::string, std::string> &params_;
    const char *bad_ = nullptr;
};

/**
 * @return true when @p prefix starts like an HTTP request line — the
 * protocol sniff that lets binary frames and HTTP share one port (a
 * binary frame's first byte is a length LSB, never an ASCII method).
 */
bool looksLikeHttp(std::string_view prefix);

/**
 * Parse a request head: everything up to (not including) the blank
 * line. Lines may be CRLF or bare LF terminated.
 */
Expected<HttpRequest> parseRequestHead(std::string_view head);

/** Decode %XX escapes and '+' (as space) in a URL component. */
std::string percentDecode(std::string_view text);

/** Render a complete close-delimited HTTP/1.1 response.
 *  @p extraHeaders are emitted verbatim (e.g. {"Retry-After", "1"}). */
std::string renderHttpResponse(
    int status, const std::string &contentType, std::string_view body,
    const std::vector<std::pair<std::string, std::string>> &extraHeaders =
        {});

/**
 * Append-style renderHttpResponse() for the reactor hot path: the
 * response is appended to @p out (a per-connection scratch buffer that
 * is reset, not freed, between batches). @p keepAlive selects the
 * Connection header; Content-Length is always emitted, so a keep-alive
 * client can frame the body without waiting for EOF.
 */
void appendHttpResponse(
    std::string &out, int status, std::string_view contentType,
    std::string_view body, bool keepAlive,
    const std::vector<std::pair<std::string, std::string>> &extraHeaders =
        {});

/** Standard reason phrase for the handful of statuses we emit. */
const char *httpReason(int status);

} // namespace serve
} // namespace qdel

#endif // QDEL_SERVE_HTTP_HH
