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
 *    the invariants that keep the merge deterministic). Each line is
 *    split and its plain integers converted in one pass
 *    (detail::scanFields), and each record is appended to its chunk's
 *    columns (trace.hh), beside a column of SWF queue numbers. A
 *    "; Queue:" directive is keyed by the number of records its chunk
 *    kept before it; the merge replays the directives against that
 *    count, turning each declared name into a queue id once, fills the
 *    chunk's queue-id column and concatenates the columns.
 */

#include "trace/swf_format.hh"

#include <algorithm>
#include <cmath>
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

/** What one SWF data line came to. */
enum class SwfVerdict
{
    Malformed,
    Filtered,  //!< Well-formed, but dropped by the skip options.
    Kept,
};

/** The values one SWF data line contributes. */
struct SwfRow
{
    double submit = 0.0;
    double wait = 0.0;  //!< -1 when the log recorded none.
    double run = -1.0;
    long long status = 1;
    int procs = 1;
    long long queueNumber = -1;  //!< Resolved to a name by the caller.
};

/**
 * Parse the fields of one SWF data line into @p row — only once the
 * line is known to be well-formed. On failure fills @p err with
 * field/reason only; the caller adds file and line number. Both the
 * getline path and the zero-copy path share these field semantics; the
 * scanning machinery stays independent (see parseSwfTrace).
 */
SwfVerdict
parseSwfFields(const detail::ScannedField *fields, size_t field_count,
               const SwfParseOptions &options, SwfRow &row, ParseError &err)
{
    if (field_count < 5) {
        err = ParseError{"", 0, "",
                         "SWF data lines need at least 5 fields, got " +
                             std::to_string(field_count)};
        return SwfVerdict::Malformed;
    }

    bool failed = false;
    auto fail = [&](size_t idx, const std::string &what) {
        failed = true;
        err = ParseError{};
        err.field = "field " + std::to_string(idx + 1);
        err.reason = what + " '" + std::string(fields[idx].text) + "'";
    };
    auto field_int = [&](size_t idx, long long missing) -> long long {
        if (failed || idx >= field_count)
            return missing;
        if (auto value = fields[idx].toInt())
            return *value;
        // SWF occasionally carries fractional seconds; accept, but only
        // for finite values that fit a long long (the cast is UB
        // otherwise).
        if (auto dvalue = fields[idx].toDouble()) {
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
        auto value = fields[idx].toDouble();
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
    const long long queue = field_int(14, -1);
    if (failed)
        return SwfVerdict::Malformed;

    const long long procs = req_procs > 0 ? req_procs : alloc_procs;
    if (procs > std::numeric_limits<int>::max()) {
        err = ParseError{"", 0, "field 8 (requested procs)",
                         "processor count out of range: " +
                             std::to_string(procs)};
        return SwfVerdict::Malformed;
    }

    row.submit = submit;
    // Preserve "no recorded wait" as -1 rather than clamping to 0;
    // writers re-emit -1 so round trips keep the distinction.
    row.wait = wait < 0.0 ? -1.0 : wait;
    row.run = run;
    row.procs = procs > 0 ? static_cast<int>(procs) : 1;
    row.status = status;
    row.queueNumber = queue;

    if (row.wait < 0.0 && options.skipMissingWait)
        return SwfVerdict::Filtered;
    if (options.skipFailed && (status == 0 || status == 5))
        return SwfVerdict::Filtered;
    return SwfVerdict::Kept;
}

/** A "; Queue: <N> <name>" header directive, in line order. */
struct QueueDirective
{
    size_t recordsBefore = 0;  //!< Records the chunk kept before it.
    long long number = -1;
    std::string name;
};

/**
 * Turns SWF queue numbers into a Trace's queue ids under the
 * "; Queue:" directives seen so far. A name is interned once per
 * directive, or once per undeclared number as "q<N>" (a negative
 * number is the unnamed queue ""); a job costs an integer lookup.
 */
class SwfQueueIds
{
  public:
    explicit SwfQueueIds(Trace &trace) : trace_(trace) {}

    void
    declare(long long number, std::string_view name)
    {
        ids_[number] = trace_.internQueue(name);
    }

    uint32_t
    idOf(long long number)
    {
        auto it = ids_.find(number);
        if (it == ids_.end()) {
            it = ids_.emplace(number,
                              trace_.internQueue(
                                  number < 0 ? std::string()
                                             : "q" + std::to_string(number)))
                     .first;
        }
        return it->second;
    }

  private:
    Trace &trace_;
    std::map<long long, uint32_t> ids_;
};

/**
 * Everything one newline-aligned chunk contributes. Line numbers are
 * chunk-relative; the merge rebases them by prefix sum. The records'
 * queue ids are filled at merge time, from queueNumbers (one per
 * record) and the directives seen so far.
 */
struct SwfChunkResult
{
    TraceColumns records;
    std::vector<long long> queueNumbers;
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
parseSwfHeader(std::string_view header, SwfChunkResult &out)
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
                out.queues.push_back({out.records.size(), *num,
                                      qname == "-" ? "" : qname});
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
    // outgrown and the vectors never reallocate.
    const size_t max_lines = detail::LineCursor::maxLines(chunk);
    out.records.reserve(max_lines);
    out.queueNumbers.reserve(max_lines);
    detail::LineCursor cursor(chunk);
    std::string_view line;
    detail::ScannedField fields[kMaxSwfFields];
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
            parseSwfHeader(trim(line.substr(first + 1)), out);
            continue;
        }
        // scanFields skips interior and trailing whitespace (including
        // a trailing '\r'), so no trimmed copy is needed.
        const size_t nf = detail::scanFields(line.substr(first), fields,
                                             kMaxSwfFields);
        SwfRow row;
        const SwfVerdict verdict =
            parseSwfFields(fields, nf, options, row, err);
        if (verdict == SwfVerdict::Malformed) {
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
        if (verdict == SwfVerdict::Filtered) {
            ++out.filteredRecords;
            continue;
        }
        // The queue id is filled at merge time.
        out.records.push(row.submit, row.wait, row.run, row.status,
                         row.procs, 0);
        out.queueNumbers.push_back(row.queueNumber);
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
    SwfQueueIds queue_ids(t);
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
            parseSwfHeader(trim(body.substr(1)), header);
            if (header.machine)
                t.setMachine(std::move(*header.machine));
            if (header.site)
                t.setSite(std::move(*header.site));
            for (const auto &queue : header.queues)
                queue_ids.declare(queue.number, queue.name);
            continue;
        }
        // Deliberately the allocating tokenizer, and every field left
        // to parseInt()/parseDouble(): this path is the equivalence
        // oracle for the zero-copy scanner, and the parity tests only
        // mean something while the two split/convert machineries stay
        // independent.
        const auto field_strings = splitWhitespace(body);
        detail::ScannedField fields[kMaxSwfFields];
        const size_t nf =
            std::min(field_strings.size(), kMaxSwfFields);
        for (size_t i = 0; i < nf; ++i)
            fields[i].text = field_strings[i];
        SwfRow row;
        ParseError err;
        const SwfVerdict verdict =
            parseSwfFields(fields, nf, options, row, err);
        if (verdict == SwfVerdict::Malformed) {
            err.file = name;
            err.line = lineno;
            if (options.mode == ParseMode::Strict) {
                rep.addError(err);
                return err;
            }
            rep.addError(std::move(err));
            continue;
        }
        if (verdict == SwfVerdict::Filtered) {
            ++rep.filteredRecords;
            continue;
        }
        t.add(row.submit, row.wait, row.run, row.status, row.procs,
              queue_ids.idOf(row.queueNumber));
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

    // One chunk's columns are taken whole; several are copied, in
    // order, into room for all of them, each freed once copied.
    Trace t;
    if (parsed.size() > 1)
        t.reserve(record_total);
    SwfQueueIds queue_ids(t);
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
        const auto declare_through = [&](size_t records_before) {
            for (; qi < chunk.queues.size() &&
                   chunk.queues[qi].recordsBefore <= records_before;
                 ++qi) {
                queue_ids.declare(chunk.queues[qi].number,
                                  chunk.queues[qi].name);
            }
        };
        std::vector<uint32_t> &ids = chunk.records.queueId;
        for (size_t k = 0; k < ids.size(); ++k) {
            declare_through(k);
            ids[k] = queue_ids.idOf(chunk.queueNumbers[k]);
        }
        declare_through(ids.size());
        chunk.queueNumbers = {};
        t.append(std::move(chunk.records));
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

SwfWriter::SwfWriter(std::ostream &out, std::string_view machine,
                     std::string_view site,
                     const std::vector<std::string_view> &queues)
    : text_(out)
{
    text_.text("; Computer: ");
    text_.text(machine);
    text_.text("\n; Installation: ");
    text_.text(site);
    text_.text("\n; Generated by the qdel BMBP reproduction library\n");
    for (size_t id = 0; id < queues.size(); ++id) {
        text_.text("; Queue: ");
        text_.integer(static_cast<long long>(id));
        text_.put(' ');
        text_.text(queues[id].empty() ? "-" : queues[id]);
        text_.put('\n');
    }
}

void
SwfWriter::write(const JobRecord &job, int queueId)
{
    write(job.submitTime, job.waitSeconds, job.runSeconds, job.procs,
          job.status, queueId);
}

void
SwfWriter::write(double submit, double wait, double run, int procs,
                 long long status, int queueId)
{
    text_.integer(++jobNumber_);
    text_.put(' ');
    text_.fixed0(submit);
    text_.put(' ');
    text_.fixed0(wait >= 0.0 ? wait : -1.0);
    text_.put(' ');
    text_.fixed0(run < 0.0 ? -1.0 : run);
    text_.put(' ');
    text_.integer(procs);
    text_.text(" -1 -1 ");
    text_.integer(procs);
    text_.text(" -1 -1 ");
    text_.integer(status);
    text_.text(" -1 -1 -1 ");
    text_.integer(queueId);
    text_.text(" -1 -1 -1\n");
}

void
writeSwfTrace(const Trace &t, std::ostream &out)
{
    // Number the queues in first-appearance order.
    const std::vector<uint32_t> order = t.queueIdsInOrder();
    std::vector<int> number(t.queueTable().size(), -1);
    std::vector<std::string_view> queue_order;
    for (uint32_t id : order) {
        number[id] = static_cast<int>(queue_order.size());
        queue_order.push_back(t.queueTable()[id]);
    }

    SwfWriter writer(out, t.machine(), t.site(), queue_order);
    const TraceColumns &jobs = t.columns();
    for (size_t i = 0; i < t.size(); ++i) {
        writer.write(jobs.submit[i], jobs.wait[i], jobs.run[i],
                     jobs.procs[i], jobs.status[i],
                     number[jobs.queueId[i]]);
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
