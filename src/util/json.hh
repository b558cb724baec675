/**
 * @file
 * The one place JSON syntax is decided: string escaping, number
 * rendering (a non-finite double is null), and JsonWriter, which
 * places every quote, colon and comma of the documents the tree emits.
 * Header-only, so qdel_obs (which sits below qdel_util in the link
 * order) can use it without a link edge back up.
 */

#ifndef QDEL_UTIL_JSON_HH
#define QDEL_UTIL_JSON_HH

#include <cmath>
#include <cstdio>
#include <string>
#include <string_view>
#include <type_traits>

namespace qdel {

/** Escape @p text for inclusion inside a JSON string literal. */
inline std::string
jsonEscape(std::string_view text)
{
    std::string out;
    out.reserve(text.size());
    for (unsigned char c : text) {
        switch (c) {
        case '"':
            out += "\\\"";
            break;
        case '\\':
            out += "\\\\";
            break;
        case '\n':
            out += "\\n";
            break;
        case '\r':
            out += "\\r";
            break;
        case '\t':
            out += "\\t";
            break;
        default:
            if (c < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += static_cast<char>(c);
            }
        }
    }
    return out;
}

/** Render @p value as a JSON number: %.17g round-trips doubles
 *  exactly; JSON has no inf/nan literals, so those become null. A
 *  shorter printf @p format ("%.12g", "%.3f") trades exactness for
 *  readability under the same null rule. */
inline std::string
jsonNumber(double value, const char *format = "%.17g")
{
    if (!std::isfinite(value))
        return "null";
    char buf[352];  // %.3f of DBL_MAX is 313 characters.
    std::snprintf(buf, sizeof(buf), format, value);
    return buf;
}

/**
 * Appends one compact JSON document to a caller-owned string. Commas
 * and the colon after a key are placed automatically, strings go
 * through jsonEscape() and doubles through jsonNumber(). There is no
 * pretty-printing: text the caller appends to the string between calls
 * (a newline between array elements) passes through untouched.
 *
 *     JsonWriter w(out);
 *     w.beginObject().field("ok", true).key("ids").beginArray();
 *     for (int id : ids) w.value(id);
 *     w.endArray().endObject();  // {"ok":true,"ids":[1,2]}
 */
class JsonWriter
{
  public:
    explicit JsonWriter(std::string &out) : out_(out) {}

    JsonWriter &beginObject() { return open('{'); }
    JsonWriter &endObject() { return close('}'); }
    JsonWriter &beginArray() { return open('['); }
    JsonWriter &endArray() { return close(']'); }

    /** An object member's name; the next call writes its value. */
    JsonWriter &
    key(std::string_view name)
    {
        string(name);
        out_ += ':';
        afterKey_ = true;
        return *this;
    }

    JsonWriter &value(std::string_view text) { return string(text); }
    JsonWriter &value(const char *text) { return string(text); }

    JsonWriter &value(bool flag) { return raw(flag ? "true" : "false"); }
    JsonWriter &value(double number) { return raw(jsonNumber(number)); }

    template <typename Int,
              std::enable_if_t<std::is_integral_v<Int>, int> = 0>
    JsonWriter &value(Int number) { return raw(std::to_string(number)); }

    /** A value already rendered as JSON text, such as a number in a
     *  fixed printf format. */
    JsonWriter &
    raw(std::string_view text)
    {
        separate();
        out_ += text;
        return *this;
    }

    /** key(@p name) + value(@p v). */
    template <typename T>
    JsonWriter &
    field(std::string_view name, const T &v)
    {
        return key(name).value(v);
    }

  private:
    /** The comma before any element but a container's first. */
    void
    separate()
    {
        if (!afterKey_ && needComma_)
            out_ += ',';
        afterKey_ = false;
        needComma_ = true;
    }

    JsonWriter &
    string(std::string_view text)
    {
        separate();
        out_ += '"';
        out_ += jsonEscape(text);
        out_ += '"';
        return *this;
    }

    JsonWriter &
    open(char bracket)
    {
        separate();
        out_ += bracket;
        needComma_ = false;
        return *this;
    }

    JsonWriter &
    close(char bracket)
    {
        out_ += bracket;
        needComma_ = true;
        return *this;
    }

    std::string &out_;
    bool needComma_ = false;  //!< The current container has an element.
    bool afterKey_ = false;   //!< A key was written; its value is next.
};

} // namespace qdel

#endif // QDEL_UTIL_JSON_HH
