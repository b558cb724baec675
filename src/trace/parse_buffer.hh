/**
 * @file
 * Zero-copy building blocks shared by the SWF and native trace
 * parsers: a line cursor with std::getline semantics over a byte
 * buffer, an in-place whitespace tokenizer, and the newline-aligned
 * chunk splitter + deterministic fan-out used for parallel parsing.
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
        return static_cast<size_t>(
                   std::count(data.begin(), data.end(), '\n')) +
               1;
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
 * Split @p text on runs of ASCII whitespace into @p fields, stopping
 * after @p max_fields tokens (the trace formats address a bounded
 * prefix of the columns; trailing fields are ignored exactly as the
 * allocating splitWhitespace-based parsers ignored them).
 *
 * @return the number of fields written (saturates at @p max_fields).
 */
inline size_t
tokenizeFields(std::string_view text, std::string_view *fields,
               size_t max_fields)
{
    size_t count = 0;
    size_t i = 0;
    while (i < text.size() && count < max_fields) {
        while (i < text.size() &&
               isFieldSpace(static_cast<unsigned char>(text[i]))) {
            ++i;
        }
        const size_t start = i;
        while (i < text.size() &&
               !isFieldSpace(static_cast<unsigned char>(text[i]))) {
            ++i;
        }
        if (i > start)
            fields[count++] = text.substr(start, i - start);
    }
    return count;
}

/**
 * Fast path for parseInt() on an already-tokenized field: a plain
 * '-'-signed run of up to 18 digits (so the accumulator cannot
 * overflow) is decoded inline; anything else — empty, '+'-signed,
 * huge, or non-numeric — defers to parseInt() itself, so the result
 * is identical to parseInt() for every input without whitespace
 * (tokenized fields never contain any).
 */
inline std::optional<long long>
parseFieldInt(std::string_view text)
{
    size_t i = 0;
    const bool neg = !text.empty() && text[0] == '-';
    if (neg)
        i = 1;
    if (i == text.size() || text.size() - i > 18)
        return parseInt(text);
    long long value = 0;
    for (; i < text.size(); ++i) {
        const unsigned digit = static_cast<unsigned char>(text[i]) - '0';
        if (digit > 9)
            return parseInt(text);
        value = value * 10 + static_cast<long long>(digit);
    }
    return neg ? -value : value;
}

/**
 * Fast path for parseDouble() on an already-tokenized field: a
 * '-'-signed run of up to 15 digits converts exactly (< 2^53, so the
 * integer-to-double cast equals what from_chars would round to);
 * fractions, exponents, and oddities defer to parseDouble().
 */
inline std::optional<double>
parseFieldDouble(std::string_view text)
{
    size_t i = 0;
    const bool neg = !text.empty() && text[0] == '-';
    if (neg)
        i = 1;
    if (i == text.size() || text.size() - i > 15)
        return parseDouble(text);
    long long value = 0;
    for (; i < text.size(); ++i) {
        const unsigned digit = static_cast<unsigned char>(text[i]) - '0';
        if (digit > 9)
            return parseDouble(text);
        value = value * 10 + static_cast<long long>(digit);
    }
    const double as_double = static_cast<double>(value);
    return neg ? -as_double : as_double;
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
