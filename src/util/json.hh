/**
 * @file
 * The two JSON text helpers every hand-built JSON document in the tree
 * shares: string escaping and exact number rendering. Header-only, so
 * qdel_obs (which sits below qdel_util in the link order) can use them
 * without a link edge back up.
 */

#ifndef QDEL_UTIL_JSON_HH
#define QDEL_UTIL_JSON_HH

#include <cmath>
#include <cstdio>
#include <string>
#include <string_view>

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
 *  exactly; JSON has no inf/nan literals, so those become null. */
inline std::string
jsonNumber(double value)
{
    if (!std::isfinite(value))
        return "null";
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return buf;
}

} // namespace qdel

#endif // QDEL_UTIL_JSON_HH
