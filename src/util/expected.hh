/**
 * @file
 * Lightweight recoverable-error carrier for input-facing APIs.
 *
 * Anything that consumes *external* input — trace files, command-line
 * flags, catalog lookups driven by user strings, replay/predictor
 * configuration built from those — reports failure by returning an
 * Expected<T> holding a ParseError instead of calling fatal(). The
 * caller (a tool main(), a test, an embedding application) decides
 * whether to print-and-exit, skip, or retry. fatal()/panic() remain for
 * front-end exits and genuine programmer errors respectively; see
 * DESIGN.md §10 for the full conventions.
 */

#ifndef QDEL_UTIL_EXPECTED_HH
#define QDEL_UTIL_EXPECTED_HH

#include <string>
#include <utility>
#include <variant>

#include "util/logging.hh"

namespace qdel {

/**
 * Structured description of a rejected piece of input. All fields are
 * optional; str() renders whatever subset is present:
 *
 *   "trace.swf:42: field 3 (wait): bad SWF numeric value 'x'"
 *
 * @p line is 1-based; 0 means "not a line-oriented error" (e.g. a bad
 * command-line flag or an unopenable file).
 */
struct ParseError
{
    /** Source file (or other input source) the error came from. */
    std::string file;
    /** 1-based line number within @p file; 0 when not line-oriented. */
    size_t line = 0;
    /** The specific field/option at fault, e.g. "field 3 (wait)". */
    std::string field;
    /** Human-readable reason the input was rejected. */
    std::string reason;

    /** Render "file:line: field: reason", omitting absent parts. */
    std::string
    str() const
    {
        std::string out;
        if (!file.empty()) {
            out += file;
            if (line > 0)
                out += ":" + std::to_string(line);
            out += ": ";
        } else if (line > 0) {
            out += "line " + std::to_string(line) + ": ";
        }
        if (!field.empty())
            out += field + ": ";
        out += reason;
        return out;
    }
};

/** Success payload for operations with no interesting result value. */
struct Unit
{
};

/**
 * Either a value of type T or a ParseError describing why the value
 * could not be produced. Implicitly constructible from both so
 * functions can `return trace;` or `return ParseError{...};` directly.
 *
 * Accessing the wrong alternative is a programmer error and panics
 * (with the carried error message, so a mis-unwrapped parse failure is
 * still diagnosable).
 *
 * [[nodiscard]]: silently dropping a returned Expected discards an
 * error the caller promised to consider; every call site must check
 * ok() (or deliberately cast to void with a comment saying why).
 */
template <typename T>
class [[nodiscard]] Expected
{
  public:
    Expected(T value) : state_(std::in_place_index<0>, std::move(value)) {}
    Expected(ParseError error)
        : state_(std::in_place_index<1>, std::move(error))
    {
    }

    /** @return true when a value is held. */
    bool ok() const { return state_.index() == 0; }
    explicit operator bool() const { return ok(); }

    /** The held value; panics when holding an error. */
    const T &
    value() const &
    {
        requireValue();
        return std::get<0>(state_);
    }

    T &
    value() &
    {
        requireValue();
        return std::get<0>(state_);
    }

    T &&
    value() &&
    {
        requireValue();
        return std::get<0>(std::move(state_));
    }

    /** The held error; panics when holding a value. */
    const ParseError &
    error() const
    {
        if (ok())
            panic("Expected::error() called on a success value");
        return std::get<1>(state_);
    }

  private:
    void
    requireValue() const
    {
        if (!ok())
            panic("Expected::value() called on an error: ",
                  std::get<1>(state_).str());
    }

    std::variant<T, ParseError> state_;
};

} // namespace qdel

#endif // QDEL_UTIL_EXPECTED_HH
