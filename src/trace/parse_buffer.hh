/**
 * @file
 * Zero-copy building blocks shared by the SWF and native trace
 * parsers: a line cursor with std::getline semantics over a byte
 * buffer, an in-place field scanner that converts plain integers as
 * it splits, and the newline-aligned chunk splitter + deterministic
 * fan-out used for parallel parsing.
 *
 * The invariants that make parallel chunk parsing byte-identical to
 * the sequential getline path (see DESIGN.md §12):
 *  - chunks split only *after* a '\n', so every line belongs to
 *    exactly one chunk and chunk boundaries never cut a line;
 *  - each chunk reports its results with chunk-relative line numbers
 *    plus its own line count, and the merge assigns absolute numbers
 *    by prefix sum — chunk geometry is unobservable in the output;
 *  - chunks are merged strictly in buffer order, so cross-line state
 *    (header directives, strict-mode first-error selection, error
 *    detail caps) replays exactly as a sequential scan would.
 */

#ifndef QDEL_TRACE_PARSE_BUFFER_HH
#define QDEL_TRACE_PARSE_BUFFER_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <future>
#include <optional>
#include <string_view>
#include <vector>

#include "util/string_utils.hh"
#include "util/thread_pool.hh"

namespace qdel::trace::detail {

/**
 * C-locale isspace() as a branch-free table lookup: '\t' '\n' '\v'
 * '\f' '\r' ' ', nothing else. The libc call (with its locale
 * indirection) dominated the tokenizer's profile; the table matches
 * its C-locale behaviour for all 256 byte values.
 */
inline bool
isFieldSpace(unsigned char c)
{
    static constexpr bool kTable[256] = {
        false, false, false, false, false, false, false, false,  // 0-7
        false, true,  true,  true,  true,  true,  false, false,  // 8-15
        false, false, false, false, false, false, false, false,
        false, false, false, false, false, false, false, false,
        true,  // ' ' (0x20); everything above is false-initialized
    };
    return kTable[c];
}

/**
 * Forward iteration over the lines of a buffer, reproducing
 * std::getline: lines are separated by '\n' (a trailing '\r' is left
 * in the line for the caller's trim), a final line without a
 * terminating '\n' is still yielded, and a buffer ending in '\n' does
 * not yield a trailing empty line.
 */
class LineCursor
{
  public:
    explicit LineCursor(std::string_view data) : data_(data) {}

    /** Upper bound on the lines next() yields over @p data. */
    static size_t
    maxLines(std::string_view data)
    {
        // memchr, not std::count: GCC does not vectorize the latter.
        size_t lines = 1;
        const char *p = data.data();
        const char *const end = p + data.size();
        while (p != end) {
            const void *eol =
                std::memchr(p, '\n', static_cast<size_t>(end - p));
            if (eol == nullptr)
                break;
            ++lines;
            p = static_cast<const char *>(eol) + 1;
        }
        return lines;
    }

    /** Advance to the next line; false when the buffer is exhausted. */
    bool
    next(std::string_view &line)
    {
        if (pos_ >= data_.size())
            return false;
        const size_t eol = data_.find('\n', pos_);
        if (eol == std::string_view::npos) {
            line = data_.substr(pos_);
            pos_ = data_.size();
        } else {
            line = data_.substr(pos_, eol - pos_);
            pos_ = eol + 1;
        }
        return true;
    }

  private:
    std::string_view data_;
    size_t pos_ = 0;
};

/**
 * One whitespace-delimited token of a data line. A plain
 * -?[0-9]{1,15} token is converted while the line is split: at most
 * 15 digits stay below 2^53, so the value is exact both as a long long
 * and as a double (the double a from_chars parse would round to). Any
 * other token keeps only its text and converts through parseInt() /
 * parseDouble(), so every conversion equals theirs on the token text.
 */
struct ScannedField
{
    std::string_view text;
    long long magnitude = -1;  //!< The digits' value; < 0: not plain.
    bool negative = false;     //!< Leading '-' (so "-0" is -0.0).

    std::optional<long long>
    toInt() const
    {
        if (magnitude < 0)
            return parseInt(text);
        return negative ? -magnitude : magnitude;
    }

    std::optional<double>
    toDouble() const
    {
        if (magnitude < 0)
            return parseDouble(text);
        const double value = static_cast<double>(magnitude);
        return negative ? -value : value;
    }
};

/**
 * Split @p text on runs of ASCII whitespace into @p fields, stopping
 * after @p max_fields tokens (the trace formats address a bounded
 * prefix of the columns; trailing fields are ignored), converting
 * each plain integer token in the same pass (see ScannedField).
 *
 * @return the number of fields written (saturates at @p max_fields).
 */
inline size_t
scanFields(std::string_view text, ScannedField *fields, size_t max_fields)
{
    const char *p = text.data();
    const char *const end = p + text.size();
    size_t count = 0;
    while (count < max_fields) {
        while (p != end && isFieldSpace(static_cast<unsigned char>(*p)))
            ++p;
        if (p == end)
            break;
        const char *const start = p;
        const bool negative = *p == '-';
        p += negative;
        const char *const digits = p;
        // Unsigned, so a long digit run wraps instead of overflowing;
        // its value is discarded past 15 digits anyway.
        uint64_t value = 0;
        for (unsigned digit;
             p != end &&
             (digit = static_cast<unsigned char>(*p) - unsigned{'0'}) <= 9;
             ++p) {
            value = value * 10 + digit;
        }
        const size_t digit_count = static_cast<size_t>(p - digits);
        bool plain = digit_count >= 1 && digit_count <= 15;
        for (; p != end && !isFieldSpace(static_cast<unsigned char>(*p));
             ++p) {
            plain = false;
        }
        fields[count++] = {
            std::string_view(start, static_cast<size_t>(p - start)),
            plain ? static_cast<long long>(value) : -1, negative};
    }
    return count;
}

/**
 * Classify one raw line for the comment/blank-vs-data decision without
 * materializing a trimmed copy: @return the index of the first
 * non-whitespace byte, or npos for a blank (or all-whitespace) line.
 */
inline size_t
firstNonSpace(std::string_view line)
{
    size_t i = 0;
    while (i < line.size() &&
           isFieldSpace(static_cast<unsigned char>(line[i]))) {
        ++i;
    }
    return i == line.size() ? std::string_view::npos : i;
}

/**
 * Split @p data into chunks of roughly @p chunk_bytes, each ending
 * just after a '\n' (except possibly the last). Never returns an
 * empty list; a buffer smaller than one chunk yields a single chunk.
 */
inline std::vector<std::string_view>
splitChunksAtNewlines(std::string_view data, size_t chunk_bytes)
{
    std::vector<std::string_view> chunks;
    if (chunk_bytes == 0 || data.size() <= chunk_bytes) {
        chunks.push_back(data);
        return chunks;
    }
    size_t begin = 0;
    while (begin < data.size()) {
        size_t end = begin + chunk_bytes;
        if (end >= data.size()) {
            end = data.size();
        } else {
            const size_t eol = data.find('\n', end);
            end = eol == std::string_view::npos ? data.size() : eol + 1;
        }
        chunks.push_back(data.substr(begin, end - begin));
        begin = end;
    }
    return chunks;
}

/**
 * Run @p parse over every chunk and return the results in chunk
 * order. With more than one chunk and @p threads > 1 the chunks are
 * fanned across a ThreadPool; results are collected in submission
 * order either way, so the output is thread-count independent.
 */
template <typename Result, typename ParseChunk>
std::vector<Result>
parseChunks(const std::vector<std::string_view> &chunks,
            size_t threads, ParseChunk parse)
{
    std::vector<Result> results;
    results.reserve(chunks.size());
    if (chunks.size() <= 1 || threads <= 1) {
        for (const auto &chunk : chunks)
            results.push_back(parse(chunk));
        return results;
    }
    ThreadPool pool(std::min(threads, chunks.size()));
    std::vector<std::future<Result>> futures;
    futures.reserve(chunks.size());
    for (const auto &chunk : chunks)
        futures.push_back(pool.submit([&parse, chunk] {
            return parse(chunk);
        }));
    for (auto &future : futures)
        results.push_back(future.get());
    return results;
}

/** Default parallel-parse chunk size (4 MiB). */
constexpr size_t kDefaultChunkBytes = size_t{4} << 20;

} // namespace qdel::trace::detail

#endif // QDEL_TRACE_PARSE_BUFFER_HH
