/**
 * @file
 * Tests for the zero-copy field scanner: every token scanFields()
 * yields converts exactly as parseInt()/parseDouble() convert its
 * text, whether the scanner converted it during the split (a plain
 * -?[0-9]{1,15} token) or left it to them, and the split itself
 * honours tabs, a trailing '\r' and a buffer that ends mid-line.
 */

#include <cmath>
#include <cstring>
#include <regex>
#include <string>
#include <string_view>

#include <gtest/gtest.h>

#include "trace/parse_buffer.hh"
#include "util/string_utils.hh"

namespace qdel {
namespace trace {
namespace detail {
namespace {

/** Same presence and the same bits (so -0.0 differs from 0.0). */
void
expectSameDouble(std::optional<double> actual,
                 std::optional<double> expected)
{
    ASSERT_EQ(actual.has_value(), expected.has_value());
    if (!expected)
        return;
    if (std::isnan(*expected)) {
        EXPECT_TRUE(std::isnan(*actual));
        return;
    }
    EXPECT_EQ(std::memcmp(&*actual, &*expected, sizeof(double)), 0)
        << *actual << " vs " << *expected;
}

TEST(ScanFields, EveryTokenConvertsLikeParseIntAndParseDouble)
{
    const std::regex plain("-?[0-9]{1,15}");
    for (const char *token : {
             "0", "-0", "007", "42", "-42",
             "123456789012345",      // 15 digits
             "-999999999999999",     // 15 digits, negative
             "1234567890123456",     // 16 digits
             "9007199254740993",     // 16 digits, 2^53 + 1
             "-1234567890123456",    // 16 digits, negative
             "123456789012345678",   // 18 digits
             "1234567890123456789",  // 19 digits
             "9999999999999999999",  // 19 digits, past LLONG_MAX
             "+5", "1.5", "-1.5", "1e3", "-", "--1", "nan", "inf",
             "-inf", "0x1F", "12abc", "1-2", "5-",
         }) {
        SCOPED_TRACE(token);
        ScannedField field;
        ASSERT_EQ(scanFields(token, &field, 1), 1u);
        EXPECT_EQ(field.text, token);
        // Converted during the split exactly when the token is plain.
        EXPECT_EQ(field.magnitude >= 0, std::regex_match(token, plain));
        EXPECT_EQ(field.toInt(), parseInt(token));
        expectSameDouble(field.toDouble(), parseDouble(token));
    }
    // So "-0" above matched -0.0, not +0.0.
    ScannedField zero;
    ASSERT_EQ(scanFields("-0", &zero, 1), 1u);
    EXPECT_TRUE(std::signbit(zero.toDouble().value()));
}

TEST(ScanFields, SplitsOnTabsAndDropsTrailingCarriageReturn)
{
    ScannedField fields[4];
    ASSERT_EQ(scanFields("\t1\t\t-2 \t3.5\r", fields, 4), 3u);
    EXPECT_EQ(fields[0].text, "1");
    EXPECT_EQ(fields[0].toInt(), 1);
    EXPECT_EQ(fields[1].text, "-2");
    EXPECT_EQ(fields[1].toInt(), -2);
    EXPECT_EQ(fields[2].text, "3.5");
    expectSameDouble(fields[2].toDouble(), 3.5);

    // A CRLF-terminated last field is still a plain integer.
    ASSERT_EQ(scanFields("7 42\r", fields, 4), 2u);
    EXPECT_EQ(fields[1].text, "42");
    EXPECT_GE(fields[1].magnitude, 0);
    EXPECT_EQ(fields[1].toInt(), 42);
}

TEST(ScanFields, LastFieldEndsAtTheBufferWithoutANewline)
{
    // The view stops inside a longer buffer: the scan must not read
    // the digits past its end.
    const char *buffer = "10 2345678";
    ScannedField fields[2];
    ASSERT_EQ(scanFields(std::string_view(buffer, 6), fields, 2), 2u);
    EXPECT_EQ(fields[1].text, "234");
    EXPECT_EQ(fields[1].toInt(), 234);
    expectSameDouble(fields[1].toDouble(), 234.0);
}

TEST(ScanFields, StopsAtMaxFieldsAndSkipsBlankText)
{
    ScannedField fields[2];
    EXPECT_EQ(scanFields("", fields, 2), 0u);
    EXPECT_EQ(scanFields(" \t\r", fields, 2), 0u);
    ASSERT_EQ(scanFields("1 2 3 4", fields, 2), 2u);
    EXPECT_EQ(fields[0].toInt(), 1);
    EXPECT_EQ(fields[1].toInt(), 2);
}

TEST(LineCursor, MaxLinesCountsNewlinesPlusOne)
{
    EXPECT_EQ(LineCursor::maxLines(""), 1u);
    EXPECT_EQ(LineCursor::maxLines("a"), 1u);
    EXPECT_EQ(LineCursor::maxLines("a\n"), 2u);
    EXPECT_EQ(LineCursor::maxLines("\n\n\n"), 4u);
    EXPECT_EQ(LineCursor::maxLines("a\nb\r\nc"), 3u);
}

} // namespace
} // namespace detail
} // namespace trace
} // namespace qdel
