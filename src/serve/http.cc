/**
 * @file
 * Implementation of the minimal HTTP layer.
 */

#include "serve/http.hh"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>

#include "util/string_utils.hh"

namespace qdel {
namespace serve {

namespace {

/** Strip one CR-or-CRLF-terminated line off the front of @p rest. */
std::string_view
takeLine(std::string_view *rest)
{
    const size_t newline = rest->find('\n');
    std::string_view line;
    if (newline == std::string_view::npos) {
        line = *rest;
        *rest = std::string_view();
    } else {
        line = rest->substr(0, newline);
        *rest = rest->substr(newline + 1);
    }
    if (!line.empty() && line.back() == '\r')
        line.remove_suffix(1);
    return line;
}

std::string
lowered(std::string_view text)
{
    std::string out(text);
    std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
        return static_cast<char>(std::tolower(c));
    });
    return out;
}

int
hexDigit(char c)
{
    if (c >= '0' && c <= '9')
        return c - '0';
    if (c >= 'a' && c <= 'f')
        return c - 'a' + 10;
    if (c >= 'A' && c <= 'F')
        return c - 'A' + 10;
    return -1;
}

} // namespace

const std::string *
HttpParams::find(const char *name) const
{
    const auto it = params_.find(name);
    return it == params_.end() ? nullptr : &it->second;
}

void
HttpParams::reject(const char *name)
{
    if (bad_ == nullptr)
        bad_ = name;
}

std::string
HttpParams::str(const char *name) const
{
    const std::string *text = find(name);
    return text == nullptr ? std::string() : *text;
}

int
HttpParams::integer(const char *name, int fallback)
{
    const std::string *text = find(name);
    if (text == nullptr)
        return fallback;
    const auto value = parseInt(*text);
    if (!value || *value < std::numeric_limits<int>::min() ||
        *value > std::numeric_limits<int>::max()) {
        reject(name);
        return fallback;
    }
    return static_cast<int>(*value);
}

double
HttpParams::finite(const char *name, double fallback)
{
    const std::string *text = find(name);
    if (text == nullptr)
        return fallback;
    const auto value = parseDouble(*text);
    if (!value || !std::isfinite(*value)) {
        reject(name);
        return fallback;
    }
    return *value;
}

uint64_t
HttpParams::u64(const char *name, uint64_t fallback)
{
    const std::string *text = find(name);
    if (text == nullptr)
        return fallback;
    uint64_t value = 0;
    const char *end = text->data() + text->size();
    const auto parsed = std::from_chars(text->data(), end, value);
    if (parsed.ec != std::errc() || parsed.ptr != end) {
        reject(name);
        return fallback;
    }
    return value;
}

bool
looksLikeHttp(std::string_view prefix)
{
    static const char *const kMethods[] = {"GET ",     "POST ", "PUT ",
                                           "HEAD ",    "DELETE ", "OPTIONS ",
                                           "PATCH "};
    for (const char *method : kMethods) {
        const std::string_view m(method);
        const size_t n = std::min(prefix.size(), m.size());
        if (n > 0 && prefix.substr(0, n) == m.substr(0, n))
            return true;
    }
    return false;
}

std::string
percentDecode(std::string_view text)
{
    std::string out;
    out.reserve(text.size());
    for (size_t i = 0; i < text.size(); ++i) {
        const char c = text[i];
        if (c == '+') {
            out += ' ';
        } else if (c == '%' && i + 2 < text.size() &&
                   hexDigit(text[i + 1]) >= 0 && hexDigit(text[i + 2]) >= 0) {
            out += static_cast<char>(hexDigit(text[i + 1]) * 16 +
                                     hexDigit(text[i + 2]));
            i += 2;
        } else {
            out += c;
        }
    }
    return out;
}

Expected<HttpRequest>
parseRequestHead(std::string_view head)
{
    HttpRequest request;
    std::string_view rest = head;
    const std::string_view request_line = takeLine(&rest);

    const size_t method_end = request_line.find(' ');
    if (method_end == std::string_view::npos) {
        return ParseError{"", 0, "http.requestLine",
                          "missing method/target separator"};
    }
    const size_t target_end = request_line.find(' ', method_end + 1);
    if (target_end == std::string_view::npos) {
        return ParseError{"", 0, "http.requestLine",
                          "missing HTTP version"};
    }
    if (request_line.substr(target_end + 1).substr(0, 5) != "HTTP/") {
        return ParseError{"", 0, "http.requestLine",
                          "not an HTTP request"};
    }
    request.method = std::string(request_line.substr(0, method_end));
    std::string_view target =
        request_line.substr(method_end + 1, target_end - method_end - 1);
    if (target.empty() || target[0] != '/') {
        return ParseError{"", 0, "http.target",
                          "request target must be origin-form"};
    }

    const size_t query_start = target.find('?');
    request.path = percentDecode(target.substr(0, query_start));
    if (query_start != std::string_view::npos) {
        std::string_view query = target.substr(query_start + 1);
        while (!query.empty()) {
            const size_t amp = query.find('&');
            std::string_view pair = query.substr(0, amp);
            query = amp == std::string_view::npos ? std::string_view()
                                                  : query.substr(amp + 1);
            if (pair.empty())
                continue;
            const size_t eq = pair.find('=');
            if (eq == std::string_view::npos) {
                request.params[percentDecode(pair)] = "";
            } else {
                request.params[percentDecode(pair.substr(0, eq))] =
                    percentDecode(pair.substr(eq + 1));
            }
        }
    }

    size_t header_count = 0;
    while (!rest.empty()) {
        const std::string_view line = takeLine(&rest);
        if (line.empty())
            break;
        if (++header_count > kMaxHttpHeaderCount) {
            return ParseError{"", 0, "http.headerCount",
                              "more than " +
                                  std::to_string(kMaxHttpHeaderCount) +
                                  " header lines"};
        }
        const size_t colon = line.find(':');
        if (colon == std::string_view::npos) {
            return ParseError{"", 0, "http.header",
                              "malformed header line"};
        }
        std::string name = lowered(line.substr(0, colon));
        std::string_view value = line.substr(colon + 1);
        while (!value.empty() && (value.front() == ' ' ||
                                  value.front() == '\t'))
            value.remove_prefix(1);
        if (name == "content-length") {
            char *end = nullptr;
            const std::string value_str(value);
            const unsigned long long parsed =
                std::strtoull(value_str.c_str(), &end, 10);
            if (end == value_str.c_str() || *end != '\0') {
                return ParseError{"", 0, "http.contentLength",
                                  "unparsable Content-Length"};
            }
            request.contentLength = static_cast<size_t>(parsed);
        } else if (name == "transfer-encoding") {
            return ParseError{"", 0, "http.transferEncoding",
                              "chunked bodies are not supported"};
        } else if (name == "connection") {
            request.keepAlive = lowered(value) == "keep-alive";
        } else if (name == "x-qdel-trace") {
            // Best-effort hex parse; reject (to 0) rather than erroring
            // so a garbled trace id cannot break an otherwise valid
            // request.
            uint64_t trace = 0;
            size_t digits = 0;
            for (char c : value) {
                const int digit = hexDigit(c);
                if (digit < 0 || ++digits > 16) {
                    trace = 0;
                    break;
                }
                trace = (trace << 4) | static_cast<uint64_t>(digit);
            }
            if (digits > 0 && digits <= 16)
                request.traceId = trace;
        }
    }
    return request;
}

const char *
httpReason(int status)
{
    switch (status) {
    case 200:
        return "OK";
    case 400:
        return "Bad Request";
    case 404:
        return "Not Found";
    case 405:
        return "Method Not Allowed";
    case 411:
        return "Length Required";
    case 413:
        return "Content Too Large";
    case 431:
        return "Request Header Fields Too Large";
    case 500:
        return "Internal Server Error";
    case 503:
        return "Service Unavailable";
    default:
        return "Unknown";
    }
}

std::string
renderHttpResponse(
    int status, const std::string &contentType, std::string_view body,
    const std::vector<std::pair<std::string, std::string>> &extraHeaders)
{
    std::string response;
    appendHttpResponse(response, status, contentType, body,
                       /*keepAlive=*/false, extraHeaders);
    return response;
}

void
appendHttpResponse(
    std::string &out, int status, std::string_view contentType,
    std::string_view body, bool keepAlive,
    const std::vector<std::pair<std::string, std::string>> &extraHeaders)
{
    char buf[64];
    const int head = std::snprintf(buf, sizeof(buf), "HTTP/1.1 %d ", status);
    out.append(buf, static_cast<size_t>(head));
    out += httpReason(status);
    out += "\r\nContent-Type: ";
    out.append(contentType.data(), contentType.size());
    const int len = std::snprintf(buf, sizeof(buf),
                                  "\r\nContent-Length: %zu\r\n", body.size());
    out.append(buf, static_cast<size_t>(len));
    for (const auto &[name, value] : extraHeaders) {
        out += name;
        out += ": ";
        out += value;
        out += "\r\n";
    }
    out += keepAlive ? "Connection: keep-alive\r\n\r\n"
                     : "Connection: close\r\n\r\n";
    out.append(body.data(), body.size());
}

} // namespace serve
} // namespace qdel
