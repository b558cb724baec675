/**
 * @file
 * JsonWriter separator placement, escaping and the non-finite rule.
 */

#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "util/json.hh"

namespace qdel {
namespace {

TEST(JsonWriter, PlacesSeparatorsInNestedContainers)
{
    std::string out;
    JsonWriter w(out);
    w.beginObject().field("a", 1).key("b").beginArray();
    w.value(1).beginObject().endObject().beginArray().endArray().value(2);
    w.endArray().key("c").beginObject().field("d", true).endObject();
    w.field("e", false).endObject();
    EXPECT_EQ(out, R"({"a":1,"b":[1,{},[],2],"c":{"d":true},"e":false})");
}

TEST(JsonWriter, ValueOverloads)
{
    std::string out;
    JsonWriter w(out);
    const std::string text = "x";
    w.beginArray().value("lit").value(text).value(std::string_view("sv"));
    w.value(-3).value(uint64_t{18446744073709551615ull}).value(0.5);
    w.value(true).endArray();
    EXPECT_EQ(out, R"(["lit","x","sv",-3,18446744073709551615,0.5,true])");
}

TEST(JsonWriter, EscapesKeysAndStrings)
{
    std::string out;
    JsonWriter w(out);
    w.beginObject().field("k\"ey", "a\\b\n\x01").endObject();
    EXPECT_EQ(out, R"({"k\"ey":"a\\b\n\u0001"})");
}

TEST(JsonWriter, NonFiniteDoublesAreNull)
{
    std::string out;
    JsonWriter w(out);
    w.beginArray()
        .value(std::numeric_limits<double>::infinity())
        .value(-std::numeric_limits<double>::infinity())
        .value(std::numeric_limits<double>::quiet_NaN())
        .raw(jsonNumber(std::numeric_limits<double>::infinity(), "%.3f"))
        .raw(jsonNumber(2.0, "%.3f"))
        .endArray();
    EXPECT_EQ(out, "[null,null,null,null,2.000]");
}

TEST(JsonWriter, AppendsAndPassesCallerTextThrough)
{
    std::string out = "prefix ";
    JsonWriter w(out);
    w.beginArray().value(1);
    out += '\n';
    w.value(2);
    out += '\n';
    w.endArray();
    EXPECT_EQ(out, "prefix [1\n,2\n]");
}

} // namespace
} // namespace qdel
