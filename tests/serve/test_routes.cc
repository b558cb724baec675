/**
 * @file
 * The HTTP API's JSON renderers: the /bound and /stats bodies (inf/nan
 * become null) and GET /debug/conns over fixed view rows. Full response
 * bytes of every route over a socket are pinned in test_http_golden.cc.
 */

#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "serve/routes.hh"
#include "util/json.hh"

namespace qdel {
namespace serve {
namespace {

TEST(WireJson, EscapeAndNonFiniteRendering)
{
    EXPECT_EQ(jsonEscape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    EXPECT_EQ(jsonEscape(std::string(1, '\x02')), "\\u0002");

    BoundAnswer answer;
    answer.known = true;
    answer.upper = std::numeric_limits<double>::infinity();
    answer.lower = 0.0;
    const std::string json = answerToJson(answer);
    EXPECT_NE(json.find("\"known\":true"), std::string::npos);
    EXPECT_NE(json.find("\"upper\":null"), std::string::npos)
        << "infinity must render as null, not break JSON parsers";

    ServeStats stats;
    stats.processedPerShard = {1, 2};
    stats.entries = 3;
    const std::string stats_json = statsToJson(stats);
    EXPECT_NE(stats_json.find("[1,2]"), std::string::npos);
    EXPECT_NE(stats_json.find("\"entries\":3"), std::string::npos);
}

TEST(RoutesJson, ConnsGoldenOverFixedViewRows)
{
    ConnView binary;
    binary.fd = 7;
    binary.proto = "binary";
    binary.inBytes = 12;
    binary.outBytes = 3;
    binary.idleDeadline = false;
    binary.deadlineMs = 4999.5;
    ConnView sniff;
    sniff.fd = 9;
    sniff.deadlineMs = -0.25;
    std::vector<LoopView> loops(3);
    loops[0].connCount = 2;
    loops[0].conns = {binary, sniff};
    loops[1].connCount = 1;  // Placed, not yet adopted: no row.
    loops[2].conns = {sniff};
    loops[2].conns[0].proto = "http";
    loops[2].conns[0].deadlineMs = std::numeric_limits<double>::infinity();
    EXPECT_EQ(connsToJson(loops),
              R"({"loops":[{"loop":0,"connCount":2,"conns":[)"
              R"({"fd":7,"proto":"binary","inBytes":12,"outBytes":3,)"
              R"("idleDeadline":false,"deadlineMs":4999.5},)"
              R"({"fd":9,"proto":"sniff","inBytes":0,"outBytes":0,)"
              R"("idleDeadline":true,"deadlineMs":-0.25}]},)"
              R"({"loop":1,"connCount":1,"conns":[]},)"
              R"({"loop":2,"connCount":0,"conns":[)"
              R"({"fd":9,"proto":"http","inBytes":0,"outBytes":0,)"
              R"("idleDeadline":true,"deadlineMs":null}]}]})");
    EXPECT_EQ(connsToJson({}), R"({"loops":[]})");
}

} // namespace
} // namespace serve
} // namespace qdel
