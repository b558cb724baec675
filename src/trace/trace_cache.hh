/**
 * @file
 * Binary columnar trace cache (".qtc"): the parsed form of a text
 * trace, written once and memory-map-loaded afterwards so repeat runs
 * skip text parsing entirely.
 *
 * On-disk layout (host endianness; a cache is a per-machine artifact,
 * not an interchange format — a foreign-endian file fails the CRC and
 * falls back to text parse). All multi-byte values are stored with
 * memcpy at natural packing, no padding:
 *
 *   [0]  magic           "QTC1" (4 bytes)
 *   [4]  u32 version     kTraceCacheVersion
 *   [8]  u32 options     parse-option word (format + mode + filters);
 *                        see swfCacheOptions()/nativeCacheOptions()
 *   [12] u32 reserved    0
 *   [16] u64 sourceSize  byte size of the source text file
 *   [24] i64 sourceMtime mtime of the source, in nanoseconds
 *   [32] u64 jobCount    n
 *   ---- columns, each a contiguous array of n elements ----
 *        f64 submit[n], f64 wait[n], f64 run[n],
 *        i64 status[n], i32 procs[n], u32 queueId[n]
 *
 *        (8-byte columns first: the header is 40 bytes, so every
 *        column start stays naturally aligned for *any* n — the
 *        property that lets the streaming reader (qtc_stream.hh) hand
 *        out zero-copy typed pointers into the mapped file instead of
 *        memcpy-ing columns out.)
 *   ---- string section ----
 *        str site, str machine
 *        u32 queueNameCount, str queueName[...]   (queueId indexes this)
 *        ingest report: str source, u64 totalLines, u64 commentLines,
 *          u64 parsedRecords, u64 malformedLines, u64 filteredRecords,
 *          u32 errorCount, { str file, u64 line, str field,
 *          str reason } x errorCount
 *   ---- trailer ----
 *        u32 crc32 of every preceding byte (persist::crc32)
 *
 *   (str = u32 byte length + bytes, no terminator.)
 *
 * A cache is *valid* for a load when all of: magic/version match, the
 * options word equals the one derived from the requested parse
 * options, the source stamp equals the current stat() of the text
 * file, and the CRC verifies. Anything else is a miss — reported with
 * a reason so the loader can log why it re-parsed (recovery-ladder
 * style, like persist/recovery.hh), never an error: the text file
 * remains the source of truth.
 */

#ifndef QDEL_TRACE_TRACE_CACHE_HH
#define QDEL_TRACE_TRACE_CACHE_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "trace/ingest.hh"
#include "trace/native_format.hh"
#include "trace/swf_format.hh"
#include "trace/trace.hh"
#include "util/expected.hh"
#include "util/mapped_file.hh"

namespace qdel {
namespace trace {

/** Bump when the on-disk layout changes; stale versions re-parse.
 *  v2: 8-byte columns moved ahead of the 4-byte ones so every column
 *  is naturally aligned in the mapped file (v1 caches re-parse). */
constexpr uint32_t kTraceCacheVersion = 2;

/**
 * The parse options that determine a cache's contents, packed into the
 * header's options word. threads/chunkBytes are deliberately excluded:
 * they never change the parsed result.
 */
uint32_t swfCacheOptions(const SwfParseOptions &options);

/** Native-format equivalent of swfCacheOptions(). */
uint32_t nativeCacheOptions(const NativeParseOptions &options);

/**
 * Where the cache for @p trace_path lives: "<trace_path>.qtc" when
 * @p cache_dir is empty, otherwise "<cache_dir>/<basename>.qtc".
 */
std::string traceCachePath(const std::string &trace_path,
                           const std::string &cache_dir);

/** Why a cache read did not produce a trace. */
enum class CacheStatus
{
    Hit,      //!< Loaded; trace/report are filled.
    Missing,  //!< No cache file (first run).
    Stale,    //!< Version/options/source-stamp mismatch.
    Corrupt,  //!< CRC failure, truncation, or malformed contents.
};

/** Outcome of readTraceCache(). */
struct CacheReadResult
{
    CacheStatus status = CacheStatus::Missing;
    std::string detail;   //!< Human-readable reason for a non-Hit.
    Trace trace;          //!< Valid only when status == Hit.
    IngestReport report;  //!< Valid only when status == Hit.
};

/**
 * Zero-copy view of one .qtc image: header fields plus typed pointers
 * aimed directly into the caller's byte buffer (legal because every
 * column is naturally aligned — see the layout comment above). The
 * backing bytes must outlive the view; no column data is copied.
 */
struct QtcView
{
    uint32_t version = 0;
    uint32_t options = 0;
    uint64_t sourceSize = 0;
    int64_t sourceMtime = 0;
    size_t jobCount = 0;
    const double *submit = nullptr;
    const double *wait = nullptr;
    const double *run = nullptr;
    const int64_t *status = nullptr;
    const int32_t *procs = nullptr;
    const uint32_t *queueId = nullptr;
    std::string site;
    std::string machine;
    std::vector<std::string> queueNames;
    IngestReport report;

    /** The six column pointers, jobCount rows each. */
    ColumnsView
    columns() const
    {
        return {jobCount, submit, wait, run, status, procs, queueId};
    }
};

/** Outcome of parseQtcView(): Hit carries the view. */
struct QtcParseResult
{
    CacheStatus status = CacheStatus::Corrupt;
    std::string detail;  //!< Human-readable reason for a non-Hit.
    QtcView view;        //!< Valid only when status == Hit.
};

/**
 * Parse @p bytes (one complete .qtc image, e.g. a MappedFile view)
 * into a zero-copy QtcView. Structural damage -> Corrupt; a version
 * other than kTraceCacheVersion -> Stale. @p bytes.data() must be
 * 8-byte aligned (mmap pages and heap buffers both are). Pass
 * @p verify_crc = false only when the image was checksummed already.
 */
QtcParseResult parseQtcView(std::string_view bytes,
                            bool verify_crc = true);

/**
 * Serialize one complete .qtc image (header, columns, string section,
 * trailing CRC) from columns. Shared by writeTraceCache and the shard
 * writer in qtc_stream.hh; every queueId must index @p queue_names.
 */
std::string encodeQtcImage(const ColumnsView &columns,
                           const std::string &site,
                           const std::string &machine,
                           const std::vector<std::string> &queue_names,
                           const IngestReport &report,
                           uint32_t options_word,
                           const FileStamp &source_stamp);

/**
 * Try to load the cache at @p cache_path for a source currently
 * stamped @p source_stamp and parsed under @p options_word. Never
 * fails hard: every problem is a non-Hit status with a reason.
 */
CacheReadResult readTraceCache(const std::string &cache_path,
                               uint32_t options_word,
                               const FileStamp &source_stamp);

/**
 * Serialize @p t (+ its ingest @p report) to @p cache_path, keyed by
 * @p options_word and @p source_stamp. Published atomically through
 * persist::atomicWriteFile, so readers never observe a torn cache.
 */
Expected<Unit> writeTraceCache(const std::string &cache_path,
                               const Trace &t, const IngestReport &report,
                               uint32_t options_word,
                               const FileStamp &source_stamp);

} // namespace trace
} // namespace qdel

#endif // QDEL_TRACE_TRACE_CACHE_HH
