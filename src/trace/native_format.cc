/**
 * @file
 * Implementation of the native trace format.
 *
 * As with the SWF parser, two paths produce byte-identical results:
 * the getline reference path for streams, and the zero-copy buffer
 * path (optionally parallel over newline-aligned chunks) used for
 * files. See parse_buffer.hh for the determinism invariants.
 */

#include "trace/native_format.hh"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <istream>
#include <limits>
#include <map>
#include <optional>
#include <ostream>
#include <utility>
#include <vector>

#include "trace/parse_buffer.hh"
#include "trace/text_writer.hh"
#include "util/mapped_file.hh"
#include "util/string_utils.hh"

namespace qdel {
namespace trace {

namespace {

/** Highest field count a native data line can carry meaning in. */
constexpr size_t kMaxNativeFields = 4;

/** The values one native data line contributes. */
struct NativeRow
{
    double submit = 0.0;
    double wait = 0.0;
    int procs = 1;
    std::string_view queue;  //!< Into the line; "" when unnamed.
};

/**
 * Parse the fields of one native data line into @p row. On failure
 * fills @p err with field/reason only — the caller adds file and line
 * number — and returns false. Both the getline path and the zero-copy
 * path share these field semantics; the scanning machinery stays
 * independent (see parseNativeTrace).
 */
bool
parseNativeFields(const detail::ScannedField *fields, size_t field_count,
                  NativeRow &row, ParseError &err)
{
    if (field_count < 2) {
        err = ParseError{
            "", 0, "", "native trace lines need at least <submit> <wait>"};
        return false;
    }
    const auto submit = fields[0].toDouble();
    if (!submit || !std::isfinite(*submit)) {
        err = ParseError{"", 0, "field 1 (submit)",
                         "bad numeric value '" +
                             std::string(fields[0].text) + "'"};
        return false;
    }
    const auto wait = fields[1].toDouble();
    if (!wait || !std::isfinite(*wait)) {
        err = ParseError{"", 0, "field 2 (wait)",
                         "bad numeric value '" +
                             std::string(fields[1].text) + "'"};
        return false;
    }
    if (*wait < 0.0) {
        err = ParseError{"", 0, "field 2 (wait)",
                         "negative wait time '" +
                             std::string(fields[1].text) + "'"};
        return false;
    }
    row.submit = *submit;
    row.wait = *wait;
    if (field_count >= 3) {
        const auto procs = fields[2].toInt();
        if (!procs || *procs < 1 ||
            *procs > std::numeric_limits<int>::max()) {
            err = ParseError{"", 0, "field 3 (procs)",
                             "bad processor count '" +
                                 std::string(fields[2].text) + "'"};
            return false;
        }
        row.procs = static_cast<int>(*procs);
    }
    if (field_count >= 4 && fields[3].text != "-")
        row.queue = fields[3].text;
    return true;
}

/**
 * Recover the "# site=<s> machine=<m>" header the writer emits so
 * parse -> write round trips reproduce it. Unrecognized comments are
 * skipped, never an error. @return the (site, machine) pair if found.
 */
std::optional<std::pair<std::string, std::string>>
parseNativeHeader(std::string_view header)
{
    if (!startsWith(header, "site="))
        return std::nullopt;
    const size_t pos = header.find(" machine=");
    if (pos == std::string_view::npos)
        return std::nullopt;
    return std::make_pair(std::string(trim(header.substr(5, pos - 5))),
                          std::string(trim(header.substr(pos + 9))));
}

/**
 * Everything one newline-aligned chunk contributes. Line numbers are
 * chunk-relative; the merge rebases them by prefix sum. Queue ids
 * index the chunk's own table until the merge renumbers them.
 */
struct NativeChunkResult
{
    TraceColumns records;
    std::vector<std::string> queueNames;
    /** Last "# site=... machine=..." header in the chunk (last wins). */
    std::optional<std::pair<std::string, std::string>> siteMachine;
    size_t totalLines = 0;
    size_t commentLines = 0;
    size_t parsedRecords = 0;
    size_t malformedLines = 0;
    std::vector<ParseError> errors;  //!< .line is chunk-relative.
    bool stopped = false;            //!< Strict-mode error: chunk ended.
};

/** Zero-copy scan of one chunk. */
NativeChunkResult
parseNativeChunk(std::string_view chunk, const NativeParseOptions &options)
{
    NativeChunkResult out;
    // Each line yields at most one record, so this reserve is never
    // outgrown and the columns never reallocate.
    out.records.reserve(detail::LineCursor::maxLines(chunk));
    // A name becomes an id once, when the chunk first sees it; a job
    // naming the same queue as the last costs one comparison.
    std::map<std::string, uint32_t, std::less<>> queue_ids;
    std::string_view last_queue;
    uint32_t last_id = 0;
    detail::LineCursor cursor(chunk);
    std::string_view line;
    detail::ScannedField fields[kMaxNativeFields];
    ParseError err;
    while (cursor.next(line)) {
        ++out.totalLines;
        const size_t first = detail::firstNonSpace(line);
        if (first == std::string_view::npos) {
            ++out.commentLines;
            continue;
        }
        if (line[first] == '#') {
            ++out.commentLines;
            if (auto header = parseNativeHeader(trim(line.substr(first + 1))))
                out.siteMachine = std::move(header);
            continue;
        }
        // scanFields skips interior and trailing whitespace (including
        // a trailing '\r'), so no trimmed copy is needed.
        const size_t nf = detail::scanFields(line.substr(first), fields,
                                             kMaxNativeFields);
        NativeRow row;
        if (!parseNativeFields(fields, nf, row, err)) {
            ++out.malformedLines;
            if (out.errors.size() < IngestReport::kMaxDetailedErrors) {
                err.line = out.totalLines;
                out.errors.push_back(err);
            }
            if (options.mode == ParseMode::Strict) {
                out.stopped = true;
                return out;
            }
            continue;
        }
        if (out.queueNames.empty() || row.queue != last_queue) {
            auto [it, added] = queue_ids.emplace(
                row.queue, static_cast<uint32_t>(out.queueNames.size()));
            if (added)
                out.queueNames.emplace_back(row.queue);
            last_queue = it->first;
            last_id = it->second;
        }
        // The format carries no run time or status: the JobRecord
        // defaults, unknown (-1) and completed (1).
        out.records.push(row.submit, row.wait, -1.0, 1, row.procs, last_id);
        ++out.parsedRecords;
    }
    return out;
}

/** Fold one chunk's counters into the report (detail cap preserved). */
void
accumulateCounts(IngestReport &rep, NativeChunkResult &chunk,
                 size_t line_offset, const std::string &name)
{
    rep.totalLines += chunk.totalLines;
    rep.commentLines += chunk.commentLines;
    rep.parsedRecords += chunk.parsedRecords;
    rep.malformedLines += chunk.malformedLines;
    for (auto &err : chunk.errors) {
        if (rep.errors.size() >= IngestReport::kMaxDetailedErrors)
            break;
        err.file = name;
        err.line += line_offset;
        rep.errors.push_back(std::move(err));
    }
}

} // namespace

Expected<Trace>
parseNativeTrace(std::istream &in, const std::string &name,
                 const NativeParseOptions &options, IngestReport *report)
{
    IngestReport local;
    IngestReport &rep = report ? *report : local;
    rep = IngestReport{};
    rep.source = name;

    Trace t;
    std::string line;
    size_t lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        ++rep.totalLines;
        std::string_view body = trim(line);
        if (body.empty() || body.front() == '#') {
            ++rep.commentLines;
            if (!body.empty()) {
                if (auto header = parseNativeHeader(trim(body.substr(1)))) {
                    t.setSite(std::move(header->first));
                    t.setMachine(std::move(header->second));
                }
            }
            continue;
        }
        // Deliberately the allocating tokenizer, and every field left
        // to parseInt()/parseDouble(): this path is the equivalence
        // oracle for the zero-copy scanner, and the parity tests only
        // mean something while the two split/convert machineries stay
        // independent.
        const auto field_strings = splitWhitespace(body);
        detail::ScannedField fields[kMaxNativeFields];
        const size_t nf =
            std::min(field_strings.size(), kMaxNativeFields);
        for (size_t i = 0; i < nf; ++i)
            fields[i].text = field_strings[i];
        NativeRow row;
        ParseError err;
        if (!parseNativeFields(fields, nf, row, err)) {
            err.file = name;
            err.line = lineno;
            if (options.mode == ParseMode::Strict) {
                rep.addError(err);
                return err;
            }
            rep.addError(std::move(err));
            continue;
        }
        t.add(row.submit, row.wait, -1.0, 1, row.procs,
              t.internQueue(row.queue));  // As in parseNativeChunk.
        ++rep.parsedRecords;
    }
    t.sortBySubmitTime();
    return t;
}

Expected<Trace>
parseNativeBuffer(std::string_view data, const std::string &name,
                  const NativeParseOptions &options, IngestReport *report)
{
    IngestReport local;
    IngestReport &rep = report ? *report : local;
    rep = IngestReport{};
    rep.source = name;

    const size_t chunk_bytes = options.chunkBytes
                                   ? options.chunkBytes
                                   : detail::kDefaultChunkBytes;
    const size_t threads =
        ThreadPool::resolveThreadCount(options.threads);
    const auto chunks = detail::splitChunksAtNewlines(data, chunk_bytes);
    auto parsed = detail::parseChunks<NativeChunkResult>(
        chunks, threads, [&options](std::string_view chunk) {
            return parseNativeChunk(chunk, options);
        });

    // Strict mode: the first failing line wins, exactly as the
    // sequential scan would have stopped there. Chunks before it are
    // complete, so the failing line's absolute number is a prefix sum.
    size_t record_total = 0;
    for (size_t i = 0; i < parsed.size(); ++i) {
        if (!parsed[i].stopped) {
            record_total += parsed[i].records.size();
            continue;
        }
        size_t line_offset = 0;
        for (size_t j = 0; j < i; ++j) {
            accumulateCounts(rep, parsed[j], line_offset, name);
            line_offset += parsed[j].totalLines;
        }
        accumulateCounts(rep, parsed[i], line_offset, name);
        return rep.errors.back();
    }

    // One chunk's columns are taken whole; several are copied, in
    // order, into room for all of them, each freed once copied.
    Trace t;
    if (parsed.size() > 1)
        t.reserve(record_total);
    size_t line_offset = 0;
    for (auto &chunk : parsed) {
        if (chunk.siteMachine) {
            t.setSite(std::move(chunk.siteMachine->first));
            t.setMachine(std::move(chunk.siteMachine->second));
        }
        t.append(std::move(chunk.records), chunk.queueNames);
        accumulateCounts(rep, chunk, line_offset, name);
        line_offset += chunk.totalLines;
    }
    t.sortBySubmitTime();
    return t;
}

Expected<Trace>
loadNativeTrace(const std::string &path, const NativeParseOptions &options,
                IngestReport *report)
{
    auto file = MappedFile::open(path);
    if (!file.ok())
        return ParseError{path, 0, "", "cannot open native trace file"};
    return parseNativeBuffer(file.value().view(), path, options, report);
}

void
writeNativeTrace(const Trace &t, std::ostream &out)
{
    TextWriter text(out);
    text.text("# site=");
    text.text(t.site());
    text.text(" machine=");
    text.text(t.machine());
    text.text("\n# submit wait procs queue\n");
    // A name is written up to its first NUL byte ("%s").
    std::vector<std::string_view> names;
    for (const std::string &queue : t.queueTable())
        names.push_back(queue.empty() ? std::string_view("-")
                                      : std::string_view(queue.c_str()));
    const TraceColumns &jobs = t.columns();
    for (size_t i = 0; i < t.size(); ++i) {
        text.fixed0(jobs.submit[i]);
        text.put(' ');
        text.general6(jobs.wait[i]);
        text.put(' ');
        text.integer(jobs.procs[i]);
        text.put(' ');
        text.text(names[jobs.queueId[i]]);
        text.put('\n');
    }
}

Expected<Unit>
saveNativeTrace(const Trace &t, const std::string &path)
{
    std::ofstream out(path);
    if (!out)
        return ParseError{path, 0, "", "cannot open for writing"};
    writeNativeTrace(t, out);
    out.flush();
    if (!out)
        return ParseError{path, 0, "", "write failed"};
    return Unit{};
}

} // namespace trace
} // namespace qdel
