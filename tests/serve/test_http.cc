/**
 * @file
 * HTTP layer tests: the protocol sniff, request-head parsing (query
 * params, percent decoding, headers, the explicit chunked-body
 * refusal), and response rendering.
 */

#include <string>

#include <gtest/gtest.h>

#include "serve/http.hh"

namespace qdel {
namespace serve {
namespace {

TEST(HttpSniff, MethodsLookLikeHttpAndFramesDoNot)
{
    EXPECT_TRUE(looksLikeHttp("GET / HTTP/1.1"));
    EXPECT_TRUE(looksLikeHttp("POST /event HTTP/1.1"));
    EXPECT_TRUE(looksLikeHttp("DELETE /x"));
    // Partial prefixes still match while bytes dribble in.
    EXPECT_TRUE(looksLikeHttp("GE"));
    EXPECT_TRUE(looksLikeHttp("P"));

    // A binary frame's first four bytes are a little-endian length
    // under 2^24: byte 3 is always NUL, which no method line carries.
    const char frame_prefix[] = {0x47, 0x45, 0x54, 0x00};  // "GET\0"
    EXPECT_FALSE(
        looksLikeHttp(std::string_view(frame_prefix, sizeof(frame_prefix))));
    EXPECT_FALSE(looksLikeHttp(std::string_view("\x05\x00\x00\x00", 4)));
    EXPECT_FALSE(looksLikeHttp("FETCH /x"));
    EXPECT_FALSE(looksLikeHttp(""));
}

TEST(HttpParse, RequestLineAndParams)
{
    auto parsed = parseRequestHead(
        "GET /bound?machine=data%20star&queue=q+1&procs=4&flag "
        "HTTP/1.1\r\nHost: localhost\r\n");
    ASSERT_TRUE(parsed.ok());
    const HttpRequest &request = parsed.value();
    EXPECT_EQ(request.method, "GET");
    EXPECT_EQ(request.path, "/bound");
    EXPECT_EQ(request.params.at("machine"), "data star");
    EXPECT_EQ(request.params.at("queue"), "q 1");
    EXPECT_EQ(request.params.at("procs"), "4");
    EXPECT_EQ(request.params.at("flag"), "");
    EXPECT_EQ(request.contentLength, 0u);
}

TEST(HttpParse, BareLfLinesAndContentLength)
{
    auto parsed = parseRequestHead(
        "POST /event HTTP/1.0\nContent-Length: 42\nX-Other: y\n");
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value().method, "POST");
    EXPECT_EQ(parsed.value().contentLength, 42u);
}

TEST(HttpParse, Rejections)
{
    EXPECT_FALSE(parseRequestHead("GET\r\n").ok());
    EXPECT_FALSE(parseRequestHead("GET /\r\n").ok());  // no version
    EXPECT_FALSE(parseRequestHead("GET / SMTP/1.0\r\n").ok());
    EXPECT_FALSE(parseRequestHead("GET example.com HTTP/1.1\r\n").ok())
        << "absolute-form target must be refused";
    EXPECT_FALSE(
        parseRequestHead("GET / HTTP/1.1\r\nbad header line\r\n").ok());
    EXPECT_FALSE(parseRequestHead(
                     "GET / HTTP/1.1\r\nContent-Length: twelve\r\n")
                     .ok());
    auto chunked = parseRequestHead(
        "POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n");
    ASSERT_FALSE(chunked.ok());
    EXPECT_NE(chunked.error().str().find("chunked"), std::string::npos);
}

TEST(HttpParse, PercentDecodeEdgeCases)
{
    EXPECT_EQ(percentDecode("a%2Fb%2fc"), "a/b/c");
    EXPECT_EQ(percentDecode("1+2"), "1 2");
    EXPECT_EQ(percentDecode("100%"), "100%");   // dangling escape
    EXPECT_EQ(percentDecode("%G1"), "%G1");     // bad hex passes through
    EXPECT_EQ(percentDecode("%00"), std::string(1, '\0'));
    EXPECT_EQ(percentDecode(""), "");
}

TEST(HttpRender, ResponseShape)
{
    const std::string response =
        renderHttpResponse(404, "application/json", "{\"e\":1}");
    EXPECT_EQ(response.rfind("HTTP/1.1 404 Not Found\r\n", 0), 0u);
    EXPECT_NE(response.find("Content-Length: 7\r\n"), std::string::npos);
    EXPECT_NE(response.find("Connection: close\r\n"), std::string::npos);
    EXPECT_NE(response.find("\r\n\r\n{\"e\":1}"), std::string::npos);
    EXPECT_STREQ(httpReason(200), "OK");
    EXPECT_STREQ(httpReason(500), "Internal Server Error");
    EXPECT_STREQ(httpReason(999), "Unknown");
}

TEST(HttpParams, AbsentKeepsTheDefaultAndMalformedIsNamed)
{
    HttpRequest request;
    request.params = {{"procs", "16"}, {"q", "0.5"}, {"job", "42"},
                      {"machine", "m"}};
    HttpParams good(request);
    EXPECT_EQ(good.str("machine"), "m");
    EXPECT_EQ(good.str("queue"), "");
    EXPECT_EQ(good.integer("procs", 1), 16);
    EXPECT_EQ(good.integer("absent", 7), 7);
    EXPECT_EQ(good.finite("q", 0.95), 0.5);
    EXPECT_EQ(good.u64("job", 0), 42u);
    EXPECT_EQ(good.u64("seq", 9), 9u);
    EXPECT_EQ(good.bad(), nullptr);

    request.params = {{"procs", "4x"},  {"time", "nan"}, {"q", "inf"},
                      {"job", "-1"},    {"seq", ""},     {"big", "1e999"},
                      {"wide", "3000000000"}};
    HttpParams bad(request);
    EXPECT_EQ(bad.finite("time", 0.0), 0.0);  // Default, not NaN.
    EXPECT_STREQ(bad.bad(), "time");
    EXPECT_EQ(bad.integer("procs", 1), 1);
    EXPECT_STREQ(bad.bad(), "time") << "the first bad name sticks";
    HttpParams each(request);
    EXPECT_EQ(each.finite("q", 0.95), 0.95);
    EXPECT_STREQ(each.bad(), "q");
    for (const char *name : {"procs", "wide"}) {
        HttpParams one(request);
        one.integer(name, 1);
        EXPECT_STREQ(one.bad(), name);
    }
    for (const char *name : {"job", "seq"}) {
        HttpParams one(request);
        one.u64(name, 0);
        EXPECT_STREQ(one.bad(), name);
    }
    HttpParams overflow(request);
    overflow.finite("big", 0.0);
    EXPECT_STREQ(overflow.bad(), "big");
}

} // namespace
} // namespace serve
} // namespace qdel
