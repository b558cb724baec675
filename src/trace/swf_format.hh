/**
 * @file
 * Parser/writer for the Standard Workload Format (SWF) used by the
 * Parallel Workloads Archive — the public home of scheduler logs like
 * the ones the paper evaluates on (SDSC Paragon/SP, LANL O2K, ...).
 *
 * SWF is line oriented: comment/header lines start with ';', data
 * lines hold 18 whitespace-separated fields:
 *
 *   1 job number          7 used memory        13 group id
 *   2 submit time         8 requested procs    14 executable id
 *   3 wait time           9 requested time     15 queue number
 *   4 run time           10 requested memory   16 partition number
 *   5 allocated procs    11 status             17 preceding job
 *   6 avg cpu time       12 user id            18 think time
 *
 * Missing values are -1. We map: submit -> JobRecord::submitTime,
 * wait -> waitSeconds (missing preserved as -1), run -> runSeconds,
 * requested procs (falling back to allocated procs) -> procs,
 * status -> status, and queue number -> queue name. Queue numbers
 * resolve through "; Queue: <N> <name>" header comments when present
 * (the writer emits them, and archive logs carry them), falling back
 * to the synthetic name "q<N>". "; Computer:" and "; Installation:"
 * headers likewise populate Trace::machine()/site(), so parse ->
 * write -> parse preserves the metadata too.
 *
 * Malformed input is recoverable: the parse/load functions return
 * Expected<Trace> and never terminate the process. See ingest.hh for
 * the strict/lenient policy and the per-load IngestReport.
 */

#ifndef QDEL_TRACE_SWF_FORMAT_HH
#define QDEL_TRACE_SWF_FORMAT_HH

#include <cstddef>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "trace/ingest.hh"
#include "trace/text_writer.hh"
#include "trace/trace.hh"
#include "util/expected.hh"

namespace qdel {
namespace trace {

/** Options controlling SWF import. */
struct SwfParseOptions
{
    /** Drop records whose wait time is missing (-1). */
    bool skipMissingWait = true;
    /** Drop records with status 0/5 (failed/cancelled) when true. */
    bool skipFailed = false;
    /** Malformed-line policy (strict: fail the load; lenient: skip). */
    ParseMode mode = ParseMode::Strict;
    /**
     * Parse worker threads for the zero-copy buffer path: 1 (default)
     * parses sequentially, 0 resolves ThreadPool::defaultThreadCount(),
     * N > 1 fans newline-aligned chunks across a pool. The parsed
     * Trace and IngestReport are byte-identical for every value.
     */
    long long threads = 1;
    /**
     * Target bytes per parallel chunk; 0 selects the default (4 MiB).
     * Exposed so tests can force multi-chunk merges on small inputs.
     */
    size_t chunkBytes = 0;
};

/**
 * Parse an SWF stream.
 *
 * @param in      Input stream.
 * @param name    Diagnostic name for error messages.
 * @param options Import options.
 * @param report  Optional per-load accounting (filled either way).
 * @return Parsed trace sorted by submit time, or the first ParseError
 *         in strict mode. Lenient mode only fails on stream-level
 *         problems, never on malformed lines.
 */
Expected<Trace> parseSwfTrace(std::istream &in,
                              const std::string &name = "<in>",
                              const SwfParseOptions &options = {},
                              IngestReport *report = nullptr);

/**
 * Zero-copy parse of an in-memory SWF buffer: scans @p data in place
 * (no per-line strings), optionally fanning newline-aligned chunks
 * across a thread pool (options.threads). Produces a Trace and
 * IngestReport byte-identical to parseSwfTrace() on the same bytes in
 * both strict and lenient modes.
 */
Expected<Trace> parseSwfBuffer(std::string_view data,
                               const std::string &name,
                               const SwfParseOptions &options = {},
                               IngestReport *report = nullptr);

/**
 * Parse the SWF file at @p path; error when the file cannot be read.
 * The file is memory-mapped and parsed through parseSwfBuffer().
 */
Expected<Trace> loadSwfTrace(const std::string &path,
                             const SwfParseOptions &options = {},
                             IngestReport *report = nullptr);

/**
 * SWF output one job at a time: the header when constructed, then one
 * data line per write(), buffered through a TextWriter. Times are
 * written rounded to whole seconds ("%.0f"); a missing wait or run
 * time is written as -1 and the job status is preserved.
 */
class SwfWriter
{
  public:
    /**
     * Write the header: @p machine, @p site and one "; Queue:" line per
     * name in @p queues, numbered from 0 (an empty name is written "-").
     */
    SwfWriter(std::ostream &out, std::string_view machine,
              std::string_view site,
              const std::vector<std::string_view> &queues);

    /** Write @p job as the next data line, in SWF queue @p queueId. */
    void write(const JobRecord &job, int queueId);

    /** The same, from a job's column values. */
    void write(double submit, double wait, double run, int procs,
               long long status, int queueId);

    /** Hand the buffered lines to the stream (destruction does too). */
    void flush() { text_.flush(); }

  private:
    TextWriter text_;
    long long jobNumber_ = 0;
};

/**
 * Write @p t as SWF. Queue names are mapped to numbers in
 * first-appearance order (and emitted as header comments), so
 * parse -> write -> parse is lossless for the fields the library
 * models.
 */
void writeSwfTrace(const Trace &t, std::ostream &out);

/** Write @p t as SWF to the file at @p path. */
Expected<Unit> saveSwfTrace(const Trace &t, const std::string &path);

} // namespace trace
} // namespace qdel

#endif // QDEL_TRACE_SWF_FORMAT_HH
