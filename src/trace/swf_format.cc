/**
 * @file
 * Implementation of the SWF parser and writer.
 *
 * Two parsing paths produce byte-identical results:
 *  - parseSwfTrace(istream): the original line-at-a-time getline
 *    reference path, kept for stream inputs and as the equivalence
 *    oracle in tests;
 *  - parseSwfBuffer(string_view): the zero-copy path — scans the
 *    buffer in place with no per-line allocation, optionally in
 *    parallel over newline-aligned chunks (see parse_buffer.hh for
 *    the invariants that keep the merge deterministic).
 */

#include "trace/swf_format.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <istream>
#include <limits>
#include <map>
#include <optional>
#include <ostream>
#include <vector>

#include "trace/parse_buffer.hh"
#include "util/mapped_file.hh"
#include "util/string_utils.hh"

namespace qdel {
namespace trace {

namespace {

/** Largest double guaranteed to convert to long long without overflow. */
constexpr double kMaxIntegralDouble = 9.0e18;

/** Highest 0-based SWF field index the parser addresses (queue number). */
constexpr size_t kMaxSwfFields = 15;

/** One data line, parsed: the record plus the policy-filter verdict. */
struct SwfLine
{
    JobRecord job;
    long long queueNumber = -1;
    bool filtered = false;
};

/**
 * Parse the fields of one SWF data line into @p out, overwriting every
 * member (so one instance can be reused across lines without carrying
 * state over). On failure fills @p err with field/reason only — the
 * caller adds file and line number — and returns false. Operates on
 * unowned views so both the getline path and the zero-copy path share
 * the field semantics (the *scanning* machinery stays independent; see
 * parseSwfTrace).
 */
bool
parseSwfFields(const std::string_view *fields, size_t field_count,
               const SwfParseOptions &options, SwfLine &out,
               ParseError &err)
{
    if (field_count < 5) {
        err = ParseError{"", 0, "",
                         "SWF data lines need at least 5 fields, got " +
                             std::to_string(field_count)};
        return false;
    }

    bool failed = false;
    auto fail = [&](size_t idx, const std::string &what) {
        failed = true;
        err = ParseError{};
        err.field = "field " + std::to_string(idx + 1);
        err.reason = what + " '" + std::string(fields[idx]) + "'";
    };
    auto field_int = [&](size_t idx, long long missing) -> long long {
        if (failed || idx >= field_count)
            return missing;
        if (auto value = detail::parseFieldInt(fields[idx]))
            return *value;
        // SWF occasionally carries fractional seconds; accept, but only
        // for finite values that fit a long long (the cast is UB
        // otherwise).
        if (auto dvalue = detail::parseFieldDouble(fields[idx])) {
            if (std::isfinite(*dvalue) &&
                std::abs(*dvalue) <= kMaxIntegralDouble)
                return static_cast<long long>(*dvalue);
        }
        fail(idx, "bad SWF integer value");
        return missing;
    };
    auto field_double = [&](size_t idx, double missing) -> double {
        if (failed || idx >= field_count)
            return missing;
        auto value = detail::parseFieldDouble(fields[idx]);
        if (!value || !std::isfinite(*value)) {
            fail(idx, "bad SWF numeric value");
            return missing;
        }
        return *value;
    };

    const double submit = field_double(1, -1.0);
    const double wait = field_double(2, -1.0);
    const double run = field_double(3, -1.0);
    const long long alloc_procs = field_int(4, -1);
    const long long req_procs = field_int(7, -1);
    const long long status = field_int(10, -1);
    const long long queue_number = field_int(14, -1);
    if (failed)
        return false;

    const long long procs = req_procs > 0 ? req_procs : alloc_procs;
    if (procs > std::numeric_limits<int>::max()) {
        err = ParseError{"", 0, "field 8 (requested procs)",
                         "processor count out of range: " +
                             std::to_string(procs)};
        return false;
    }

    out.job.submitTime = submit;
    // Preserve "no recorded wait" as -1 rather than clamping to 0;
    // writers re-emit -1 so round trips keep the distinction.
    out.job.waitSeconds = wait < 0.0 ? -1.0 : wait;
    out.job.runSeconds = run;
    out.job.procs = procs > 0 ? static_cast<int>(procs) : 1;
    out.job.status = status;
    out.job.queue.clear();
    out.queueNumber = queue_number;

    out.filtered = false;
    if (!out.job.hasWait() && options.skipMissingWait)
        out.filtered = true;
    else if (options.skipFailed && (status == 0 || status == 5))
        out.filtered = true;
    return true;
}

/** A "; Queue: <N> <name>" header directive, in line order. */
struct QueueDirective
{
    size_t relLine = 0;       //!< Chunk-relative 1-based line number.
    long long number = -1;
    std::string name;
};

/** One kept record plus the state needed to finish it at merge time. */
struct PendingRecord
{
    JobRecord job;
    long long queueNumber = -1;
    size_t relLine = 0;
};

/**
 * Everything one newline-aligned chunk contributes. Line numbers are
 * chunk-relative; the merge rebases them by prefix sum.
 */
struct SwfChunkResult
{
    std::vector<PendingRecord> records;
    std::vector<QueueDirective> queues;
    // Last "; Computer:" / "; Installation:" header in the chunk
    // (machine/site are last-writer-wins, so order within the chunk
    // beyond "last" does not matter).
    std::optional<std::string> machine;
    std::optional<std::string> site;
    size_t totalLines = 0;
    size_t commentLines = 0;
    size_t parsedRecords = 0;
    size_t filteredRecords = 0;
    size_t malformedLines = 0;
    std::vector<ParseError> errors;  //!< .line is chunk-relative.
    bool stopped = false;            //!< Strict-mode error: chunk ended.
};

/** Parse the "; ..." header comment @p header into @p out. */
void
parseSwfHeader(std::string_view header, size_t rel_line,
               SwfChunkResult &out)
{
    if (startsWith(header, "Computer:")) {
        out.machine = std::string(trim(header.substr(9)));
    } else if (startsWith(header, "Installation:")) {
        out.site = std::string(trim(header.substr(13)));
    } else if (startsWith(header, "Queue:")) {
        auto fields = splitWhitespace(header.substr(6));
        if (fields.size() >= 2) {
            if (auto num = parseInt(fields[0]); num && *num >= 0) {
                std::string qname = fields[1];
                for (size_t k = 2; k < fields.size(); ++k)
                    qname += " " + fields[k];
                out.queues.push_back(
                    {rel_line, *num, qname == "-" ? "" : qname});
            }
        }
    }
}

/** Zero-copy scan of one chunk. */
SwfChunkResult
parseSwfChunk(std::string_view chunk, const SwfParseOptions &options)
{
    SwfChunkResult out;
    // Each line yields at most one record, so this reserve is never
    // outgrown and the vector never reallocates.
    out.records.reserve(detail::LineCursor::maxLines(chunk));
    detail::LineCursor cursor(chunk);
    std::string_view line;
    std::string_view fields[kMaxSwfFields];
    SwfLine swf_line;
    ParseError err;
    while (cursor.next(line)) {
        ++out.totalLines;
        const size_t first = detail::firstNonSpace(line);
        if (first == std::string_view::npos) {
            ++out.commentLines;
            continue;
        }
        if (line[first] == ';') {
            ++out.commentLines;
            parseSwfHeader(trim(line.substr(first + 1)), out.totalLines,
                           out);
            continue;
        }
        // tokenizeFields skips interior and trailing whitespace
        // (including a trailing '\r'), so no trimmed copy is needed.
        const size_t nf = detail::tokenizeFields(line.substr(first),
                                                 fields, kMaxSwfFields);
        if (!parseSwfFields(fields, nf, options, swf_line, err)) {
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
        if (swf_line.filtered) {
            ++out.filteredRecords;
            continue;
        }
        out.records.push_back({std::move(swf_line.job),
                               swf_line.queueNumber, out.totalLines});
        ++out.parsedRecords;
    }
    return out;
}

/** Fold one chunk's counters into the report (detail cap preserved). */
void
accumulateCounts(IngestReport &rep, SwfChunkResult &chunk,
                 size_t line_offset, const std::string &name)
{
    rep.totalLines += chunk.totalLines;
    rep.commentLines += chunk.commentLines;
    rep.parsedRecords += chunk.parsedRecords;
    rep.filteredRecords += chunk.filteredRecords;
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
parseSwfTrace(std::istream &in, const std::string &name,
              const SwfParseOptions &options, IngestReport *report)
{
    IngestReport local;
    IngestReport &rep = report ? *report : local;
    rep = IngestReport{};
    rep.source = name;

    Trace t;
    // Queue names declared by "; Queue: <N> <name>" header comments
    // (the writer emits them); data lines carry only the number.
    std::map<long long, std::string> queue_names;
    std::string line;
    size_t lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        ++rep.totalLines;
        std::string_view body = trim(line);
        if (body.empty() || body.front() == ';') {
            ++rep.commentLines;
            if (body.empty())
                continue;
            // Recover the metadata the writer serializes as headers so
            // parse -> write round trips reproduce it. Headers are
            // free-form comments: anything unrecognized is skipped,
            // never an error.
            SwfChunkResult header;
            parseSwfHeader(trim(body.substr(1)), lineno, header);
            if (header.machine)
                t.setMachine(std::move(*header.machine));
            if (header.site)
                t.setSite(std::move(*header.site));
            for (auto &queue : header.queues)
                queue_names[queue.number] = std::move(queue.name);
            continue;
        }
        // Deliberately the allocating tokenizer: this path is the
        // equivalence oracle for the zero-copy scanner, and the parity
        // tests only mean something while the two line/tokenize
        // machineries stay independent.
        const auto field_strings = splitWhitespace(body);
        std::string_view fields[kMaxSwfFields];
        const size_t nf =
            std::min(field_strings.size(), kMaxSwfFields);
        for (size_t i = 0; i < nf; ++i)
            fields[i] = field_strings[i];
        SwfLine swf_line;
        ParseError err;
        if (!parseSwfFields(fields, nf, options, swf_line, err)) {
            err.file = name;
            err.line = lineno;
            if (options.mode == ParseMode::Strict) {
                rep.addError(err);
                return err;
            }
            rep.addError(std::move(err));
            continue;
        }
        if (swf_line.queueNumber >= 0) {
            auto it = queue_names.find(swf_line.queueNumber);
            swf_line.job.queue =
                it != queue_names.end()
                    ? it->second
                    : "q" + std::to_string(swf_line.queueNumber);
        }
        if (swf_line.filtered) {
            ++rep.filteredRecords;
            continue;
        }
        t.add(std::move(swf_line.job));
        ++rep.parsedRecords;
    }
    t.sortBySubmitTime();
    return t;
}

Expected<Trace>
parseSwfBuffer(std::string_view data, const std::string &name,
               const SwfParseOptions &options, IngestReport *report)
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
    auto parsed = detail::parseChunks<SwfChunkResult>(
        chunks, threads, [&options](std::string_view chunk) {
            return parseSwfChunk(chunk, options);
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

    Trace t;
    t.reserve(record_total);
    std::map<long long, std::string> queue_names;
    size_t line_offset = 0;
    for (auto &chunk : parsed) {
        if (chunk.machine)
            t.setMachine(std::move(*chunk.machine));
        if (chunk.site)
            t.setSite(std::move(*chunk.site));
        // Replay the queue directives against the records in line
        // order, so a record before its "; Queue:" header resolves to
        // the synthetic q<N> name exactly as in the sequential scan.
        size_t qi = 0;
        for (auto &record : chunk.records) {
            while (qi < chunk.queues.size() &&
                   chunk.queues[qi].relLine < record.relLine) {
                queue_names[chunk.queues[qi].number] =
                    std::move(chunk.queues[qi].name);
                ++qi;
            }
            if (record.queueNumber >= 0) {
                auto it = queue_names.find(record.queueNumber);
                record.job.queue =
                    it != queue_names.end()
                        ? it->second
                        : "q" + std::to_string(record.queueNumber);
            }
            t.add(std::move(record.job));
        }
        for (; qi < chunk.queues.size(); ++qi) {
            queue_names[chunk.queues[qi].number] =
                std::move(chunk.queues[qi].name);
        }
        accumulateCounts(rep, chunk, line_offset, name);
        line_offset += chunk.totalLines;
    }
    t.sortBySubmitTime();
    return t;
}

Expected<Trace>
loadSwfTrace(const std::string &path, const SwfParseOptions &options,
             IngestReport *report)
{
    auto file = MappedFile::open(path);
    if (!file.ok())
        return ParseError{path, 0, "", "cannot open SWF trace file"};
    return parseSwfBuffer(file.value().view(), path, options, report);
}

void
writeSwfTrace(const Trace &t, std::ostream &out)
{
    // Map queue names to SWF queue numbers in first-appearance order.
    std::map<std::string, int> queue_ids;
    std::vector<const std::string *> queue_order;
    for (const auto &job : t) {
        if (queue_ids.emplace(job.queue,
                              static_cast<int>(queue_order.size()))
                .second)
            queue_order.push_back(&job.queue);
    }

    out << "; Computer: " << t.machine() << "\n";
    out << "; Installation: " << t.site() << "\n";
    out << "; Generated by the qdel BMBP reproduction library\n";
    for (size_t id = 0; id < queue_order.size(); ++id) {
        const std::string &queue = *queue_order[id];
        out << "; Queue: " << id << " " << (queue.empty() ? "-" : queue)
            << "\n";
    }

    char buf[256];
    long long jobno = 0;
    for (const auto &job : t) {
        ++jobno;
        std::snprintf(buf, sizeof(buf),
                      "%lld %.0f %.0f %.0f %d -1 -1 %d -1 -1 %lld -1 -1 -1 "
                      "%d -1 -1 -1\n",
                      jobno, job.submitTime,
                      job.hasWait() ? job.waitSeconds : -1.0,
                      job.runSeconds < 0.0 ? -1.0 : job.runSeconds, job.procs,
                      job.procs, job.status, queue_ids[job.queue]);
        out << buf;
    }
}

Expected<Unit>
saveSwfTrace(const Trace &t, const std::string &path)
{
    std::ofstream out(path);
    if (!out)
        return ParseError{path, 0, "", "cannot open for writing"};
    writeSwfTrace(t, out);
    out.flush();
    if (!out)
        return ParseError{path, 0, "", "write failed"};
    return Unit{};
}

} // namespace trace
} // namespace qdel
